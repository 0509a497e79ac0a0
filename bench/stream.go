package main

import "math/rand/v2"

const (
	hotSetSize = 4096
	// counterLanes is how many independent callers can draw unique rows
	// from one seed without ever sharing a counter value: lanes 0 and 1 are
	// the two measured callers, lane 2 the traced pass, lane 3 set-up,
	// lane 4 the cache fill.
	counterLanes = 5
	laneTraced   = 2
	laneSetup    = 3
	laneFill     = 4
)

// shape is the request shape of a workload.
type shape struct {
	batch  int     // rows per request
	single bool    // the "row" form instead of "rows" (batch must be 1)
	dup    float64 // share of rows replayed from the hot set
}

// stream is one caller's deterministic request sequence: the same seed and
// lane always yield the same requests, whatever the other callers do.
type stream struct {
	p     *pool
	shape shape
	rng   *rand.Rand
	hot   []rowRef
	next  int64 // next unique counter on this lane
}

func newStream(p *pool, sh shape, seed uint64, lane int) *stream {
	s := &stream{
		p:     p,
		shape: sh,
		rng:   rand.New(rand.NewPCG(seed, uint64(lane)+1)),
		next:  hotSetSize + 1 + int64(lane),
	}
	if sh.dup > 0 {
		// The hot set depends on the seed alone, so all lanes share it.
		// Counters 1..hotSetSize are reserved for it.
		hr := rand.New(rand.NewPCG(seed, 0))
		s.hot = make([]rowRef, hotSetSize)
		for i := range s.hot {
			s.hot[i] = rowRef{idx: int32(hr.IntN(len(p.rows))), ctr: int64(i) + 1}
		}
	}
	return s
}

// nextRefs appends the next request's rows to dst.
func (s *stream) nextRefs(dst []rowRef) []rowRef {
	for i := 0; i < s.shape.batch; i++ {
		if s.hot != nil && s.rng.Float64() < s.shape.dup {
			dst = append(dst, s.hot[s.rng.IntN(len(s.hot))])
			continue
		}
		dst = append(dst, rowRef{idx: int32(s.rng.IntN(len(s.p.rows))), ctr: s.next})
		s.next += counterLanes
	}
	return dst
}

// loadHotSet sends every hot row through d once, in requests of the
// stream's shape, so that a cache below d holds the whole set.
func (s *stream) loadHotSet(d doer) error {
	for i := 0; i < len(s.hot); i += s.shape.batch {
		if _, err := d.do(s.hot[i:min(i+s.shape.batch, len(s.hot))], false); err != nil {
			return err
		}
	}
	return nil
}

// appendBody appends the POST /v1/predict body for refs, byte-identical to
// json.Marshal of the matching serve.PredictRequest. single selects the
// one-row "row" form.
func (p *pool) appendBody(dst []byte, refs []rowRef, single bool) []byte {
	dst = append(dst, `{"system":"`+fixtureSystem+`",`...)
	if single {
		dst = append(dst, `"row":`...)
		dst = p.appendRow(dst, refs[0])
		return append(dst, '}')
	}
	dst = append(dst, `"rows":[`...)
	for i, r := range refs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = p.appendRow(dst, r)
	}
	return append(dst, "]}"...)
}

// rowBuf is a reusable block of request rows.
type rowBuf struct {
	flat []float64
	rows [][]float64
}

// alloc returns n rows of width w backed by b.
func (b *rowBuf) alloc(n, w int) [][]float64 {
	if cap(b.flat) < n*w {
		b.flat = make([]float64, n*w)
	}
	b.rows = b.rows[:0]
	for i := 0; i < n; i++ {
		b.rows = append(b.rows, b.flat[i*w:(i+1)*w:(i+1)*w])
	}
	return b.rows
}

// fill materialises refs as feature rows backed by b.
func (b *rowBuf) fill(p *pool, refs []rowRef) [][]float64 {
	rows := b.alloc(len(refs), len(p.rows[0]))
	for i, r := range refs {
		p.fill(rows[i], r)
	}
	return rows
}
