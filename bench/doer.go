package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"iotaxo/internal/fleet"
	"iotaxo/internal/gbt"
	"iotaxo/internal/obs"
	"iotaxo/internal/serve"
	"iotaxo/internal/uq"
)

// reply is what one request at one layer boundary returned. start and end
// bracket the public call alone: building the request and decoding the
// response are the caller's cost, not the layer's.
type reply struct {
	start, end time.Time
	preds      []serve.PredictionResult // nil when the response was not decoded
	shares     []fleet.ReplicaShare     // router layers only
	timings    *serve.ServerTimings     // the program's own stage split, where the layer reports it
}

// doer issues the request refs name at one layer boundary. decode asks for
// preds, shares and timings; in-process layers return them regardless. The
// reply is valid until the next call.
type doer interface {
	do(refs []rowRef, decode bool) (*reply, error)
}

// flatDoer is the gbt rung: the compiled tree walk alone.
type flatDoer struct {
	flat *gbt.Flat
	p    *pool
	buf  rowBuf
	out  []float64
	rep  reply
}

func (d *flatDoer) do(refs []rowRef, _ bool) (*reply, error) {
	rows := d.buf.fill(d.p, refs)
	if cap(d.out) < len(rows) {
		d.out = make([]float64, len(rows))
	}
	d.rep.start = time.Now()
	d.flat.PredictAllInto(rows, d.out[:len(rows)])
	d.rep.end = time.Now()
	return &d.rep, nil
}

// ensembleDoer is the uq rung: what the guardrail adds to an evaluation —
// scaling, the ensemble forward pass and the diagnosis.
type ensembleDoer struct {
	mv      *serve.ModelVersion
	p       *pool
	buf     rowBuf
	scaled  rowBuf
	preds   []uq.Prediction
	guards  []serve.Guard
	scratch uq.BatchScratch
	rep     reply
}

func (d *ensembleDoer) do(refs []rowRef, _ bool) (*reply, error) {
	rows := d.buf.fill(d.p, refs)
	scaled := d.scaled.alloc(len(rows), len(d.p.rows[0]))
	if cap(d.preds) < len(rows) {
		d.preds = make([]uq.Prediction, len(rows))
		d.guards = make([]serve.Guard, len(rows))
	}
	preds := d.preds[:len(rows)]
	d.rep.start = time.Now()
	for i, row := range rows {
		if err := d.mv.Scaler.TransformRow(row, scaled[i]); err != nil {
			return nil, err
		}
	}
	d.mv.Ensemble.PredictBatchInto(scaled, preds, &d.scratch)
	for i := range preds {
		d.guards[i] = d.mv.Guard.Diagnose(preds[i])
	}
	d.rep.end = time.Now()
	return &d.rep, nil
}

// predictDoer is the serve rung: Service.PredictTraced (Predict is the same
// call with the timings dropped).
type predictDoer struct {
	svc *serve.Service
	p   *pool
	buf rowBuf
	tm  serve.ServerTimings
	rep reply
}

func (d *predictDoer) do(refs []rowRef, _ bool) (*reply, error) {
	rows := d.buf.fill(d.p, refs)
	d.rep.start = time.Now()
	preds, _, tm, _, err := d.svc.PredictTraced(context.Background(), fixtureSystem, 0, rows)
	d.rep.end = time.Now()
	if err != nil {
		return nil, err
	}
	d.tm = serve.ServerTimings{
		TotalNs:        tm.TotalNs,
		CacheLookupNs:  tm.Ns[obs.StageCacheLookup],
		QueueWaitNs:    tm.Ns[obs.StageQueueWait],
		WaveAssembleNs: tm.Ns[obs.StageWaveAssemble],
		EvaluateNs:     tm.Ns[obs.StageEvaluate],
		GuardNs:        tm.Ns[obs.StageGuard],
		FinalizeNs:     tm.Ns[obs.StageFinalize],
		ObserveNs:      tm.Ns[obs.StageObserve],
	}
	d.rep.preds, d.rep.timings = preds, &d.tm
	return &d.rep, nil
}

// routeDoer is the router rung: Router.Route, over whichever backends the
// router was built with.
type routeDoer struct {
	rt     *fleet.Router
	p      *pool
	single bool
	buf    rowBuf
	rep    reply
}

func (d *routeDoer) do(refs []rowRef, _ bool) (*reply, error) {
	rows := d.buf.fill(d.p, refs)
	req := serve.PredictRequest{System: fixtureSystem, Rows: rows}
	if d.single {
		req = serve.PredictRequest{System: fixtureSystem, Row: rows[0]}
	}
	d.rep.start = time.Now()
	resp, err := d.rt.Route(context.Background(), &req)
	d.rep.end = time.Now()
	if err != nil {
		return nil, err
	}
	d.rep.preds, d.rep.shares = resp.Predictions, resp.Replicas
	return &d.rep, nil
}

// wire holds what the two JSON rungs share: body assembly and decoding.
type wire struct {
	p      *pool
	single bool
	body   []byte
	resp   []byte
	out    fleet.Response // a superset of serve.PredictResponse
	rep    reply
}

func (w *wire) decode(decode bool) (*reply, error) {
	w.rep.preds, w.rep.shares, w.rep.timings = nil, nil, nil
	if !decode {
		return &w.rep, nil
	}
	w.out = fleet.Response{}
	if err := json.Unmarshal(w.resp, &w.out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	w.rep.preds, w.rep.shares, w.rep.timings = w.out.Predictions, w.out.Replicas, w.out.ServerTimings
	return &w.rep, nil
}

// recorder is the ResponseWriter of the handler rung.
type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.buf.Write(b) }

// handlerDoer is the codec rung: the handler's ServeHTTP with no socket.
type handlerDoer struct {
	wire
	h  http.Handler
	rw recorder
}

func (d *handlerDoer) do(refs []rowRef, decode bool) (*reply, error) {
	d.body = d.p.appendBody(d.body[:0], refs, d.single)
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(d.body))
	if err != nil {
		return nil, err
	}
	d.rw.header, d.rw.status = http.Header{}, http.StatusOK
	d.rw.buf.Reset()
	d.rep.start = time.Now()
	d.h.ServeHTTP(&d.rw, req)
	d.rep.end = time.Now()
	if d.rw.status != http.StatusOK {
		return nil, fmt.Errorf("handler answered %d: %s", d.rw.status, d.rw.buf.Bytes())
	}
	d.resp = d.rw.buf.Bytes()
	return d.decode(decode)
}

// httpDoer is the transport rung: POST over loopback TCP on one keep-alive
// connection, the response read into a reused buffer.
type httpDoer struct {
	wire
	client *http.Client
	url    string
}

func newHTTPDoer(p *pool, single bool, baseURL string) *httpDoer {
	return &httpDoer{
		wire:   wire{p: p, single: single},
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		url:    baseURL + "/v1/predict",
	}
}

func (d *httpDoer) close() { d.client.CloseIdleConnections() }

func (d *httpDoer) do(refs []rowRef, decode bool) (*reply, error) {
	d.body = d.p.appendBody(d.body[:0], refs, d.single)
	req, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(d.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	d.rep.start = time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	d.resp, err = readInto(d.resp[:0], resp.Body)
	resp.Body.Close()
	d.rep.end = time.Now()
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d: %s", d.url, resp.StatusCode, d.resp)
	}
	return d.decode(decode)
}

// readInto is io.ReadAll into a caller-owned buffer.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// verifier checks decoded replies against the tree-walk reference model:
// the flat engine claims bit-identity with it, through JSON and the router.
type verifier struct {
	ref *gbt.Model
	p   *pool
	row []float64
}

func newVerifier(ref *gbt.Model, p *pool) *verifier {
	return &verifier{ref: ref, p: p, row: make([]float64, len(p.rows[0]))}
}

func (v *verifier) check(refs []rowRef, rep *reply) error {
	if len(rep.preds) != len(refs) {
		return fmt.Errorf("%d predictions for %d rows", len(rep.preds), len(refs))
	}
	// Checking each index against its own row's reference is also the
	// order check on reassembled router responses.
	for i, r := range refs {
		v.p.fill(v.row, r)
		want, got := v.ref.Predict(v.row), rep.preds[i].Log10Throughput
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("row %d: log10_throughput %v, tree-walk reference %v", i, got, want)
		}
	}
	if rep.shares != nil {
		sum := 0
		for _, sh := range rep.shares {
			sum += sh.Rows
		}
		if sum != len(refs) {
			return fmt.Errorf("replica shares sum to %d rows of %d", sum, len(refs))
		}
	}
	return nil
}
