package obs

import (
	"slices"
	"time"
)

// fleettrace.go gives the fleet router its own tracing plane: router-side
// stage attribution (admit, score, fan-out, reassemble), per-hop spans for
// every replica dispatch, tail-sampled retention under the replica
// tracer's keep policy, and stitching — splicing the replicas' own
// retained span trees under the router's fan-out spans into one
// cross-process tree with per-hop network time made explicit.

// RouterStage identifies one phase of the router's request pipeline.
type RouterStage uint8

const (
	// RouterStageAdmit is request decode + validation.
	RouterStageAdmit RouterStage = iota
	// RouterStageScore is consistent-hash owner lookup and replica scoring
	// for every row group.
	RouterStageScore
	// RouterStageFanout is the parallel dispatch of owner groups to
	// replicas — the span the per-hop spans nest under.
	RouterStageFanout
	// RouterStageReassemble is splicing per-replica predictions back into
	// request row order.
	RouterStageReassemble

	// NumRouterStages bounds the RouterStage values.
	NumRouterStages
)

var routerStageNames = [NumRouterStages]string{"admit", "score", "fanout", "reassemble"}

// String returns the stage's exposition label.
func (s RouterStage) String() string {
	if int(s) < len(routerStageNames) {
		return routerStageNames[s]
	}
	return "unknown"
}

// HopSpan records one replica dispatch inside a routed request: which
// replica, how long the round trip took from the router's side, and the
// replica-reported service time that lets network time be attributed.
type HopSpan struct {
	Replica string
	// TraceID is the replica-side trace ID returned in the response share
	// (0 when the replica did not retain its trace).
	TraceID uint64
	Rows    int
	// DurationNs is the router-observed round-trip time of this dispatch.
	DurationNs int64
	// ReplicaTotalNs is the replica-reported end-to-end service time from
	// its server timings (0 when not reported); the hop's network share is
	// DurationNs - ReplicaTotalNs.
	ReplicaTotalNs int64
	// Failover marks a dispatch to a replica other than the ring owner.
	Failover bool
	Err      string
}

// FleetTrace is one retained routed request.
type FleetTrace struct {
	ID      uint64
	System  string
	Start   time.Time
	TotalNs int64
	StageNs [NumRouterStages]int64
	Rows    int
	Hops    []HopSpan
	Err     string
	Keep    string
}

// RouterTracer retains FleetTraces under the replica-side Tracer's keep
// policy (the same code; a routed request is never shed, deadline-expired
// or OoD-flagged at the router). Unlike the replica tracer it is not
// pooled — the router path is not allocation-gated, and hop slices make
// by-value pooling a false economy. A nil *RouterTracer is inert.
type RouterTracer struct {
	keepPolicy
	ring *Ring[FleetTrace]
}

// NewRouterTracer builds a router tracer under cfg (RingSize default 256).
func NewRouterTracer(cfg Config) *RouterTracer {
	return &RouterTracer{keepPolicy: keepPolicy{cfg: cfg, lat: NewMovingP99(0)}, ring: NewRing[FleetTrace](cfg.RingSize)}
}

// Finish applies the keep policy to t and retains a deep copy when kept,
// returning t.ID for retained traces and 0 otherwise. Callers own t and
// may reuse it afterwards.
func (rt *RouterTracer) Finish(t *FleetTrace) uint64 {
	if rt == nil || t == nil {
		return 0
	}
	keep := rt.keep(false, false, t.Err != "", false, t.TotalNs)
	if keep == "" {
		return 0
	}
	t.Keep = keep
	stored := *t
	stored.Hops = slices.Clone(t.Hops)
	rt.ring.Push(&stored)
	return t.ID
}

// Recent returns up to limit retained traces, newest first.
func (rt *RouterTracer) Recent(limit int) []FleetTrace {
	if rt == nil {
		return nil
	}
	return rt.ring.Recent(limit)
}

// Get returns the retained trace with the given ID.
func (rt *RouterTracer) Get(id uint64) (FleetTrace, bool) {
	if rt == nil {
		return FleetTrace{}, false
	}
	return rt.ring.Find(func(t *FleetTrace) bool { return t.ID == id })
}

// Collect appends the router tracer's series.
func (rt *RouterTracer) Collect(dst []PromFamily) []PromFamily {
	if rt == nil {
		return dst
	}
	return rt.collect(dst, "iorouter", "routed traces")
}

// StitchedHop is one replica dispatch in a stitched cross-process trace.
type StitchedHop struct {
	Replica string `json:"replica"`
	TraceID string `json:"trace_id,omitempty"`
	Rows    int    `json:"rows"`
	// DurationNs is the router-observed round trip; NetworkNs the share of
	// it not accounted for by the replica's own service time.
	DurationNs int64 `json:"duration_ns"`
	NetworkNs  int64 `json:"network_ns"`
	// Missing marks a hop whose replica-side trace could not be fetched
	// (not retained, evicted from the replica's ring, or replica down) —
	// the stitched tree degrades to the router-side view for this hop.
	Missing  bool   `json:"missing,omitempty"`
	Failover bool   `json:"failover,omitempty"`
	Error    string `json:"error,omitempty"`
}

// StitchedTrace is the cross-process view of one routed request: the
// router's stage spans with every fetched replica span tree spliced under
// its fan-out hop.
type StitchedTrace struct {
	TraceID string        `json:"trace_id"`
	System  string        `json:"system"`
	Start   time.Time     `json:"start"`
	TotalNs int64         `json:"total_ns"`
	Rows    int           `json:"rows"`
	Kept    string        `json:"kept_because"`
	Error   string        `json:"error,omitempty"`
	Hops    []StitchedHop `json:"hops"`
	Spans   SpanNode      `json:"spans"`
}

// Stitch assembles the cross-process tree. fetch resolves one replica's
// retained trace detail by ID; returning false marks the hop missing and
// keeps the router-side span as a partial view rather than failing the
// whole stitch.
func (t *FleetTrace) Stitch(fetch func(replica string, id uint64) (*TraceDetail, bool)) StitchedTrace {
	st := StitchedTrace{
		TraceID: FormatTraceID(t.ID),
		System:  t.System,
		Start:   t.Start,
		TotalNs: t.TotalNs,
		Rows:    t.Rows,
		Kept:    t.Keep,
		Error:   t.Err,
	}
	root := SpanNode{Name: "request", DurationNs: t.TotalNs}
	for s := RouterStage(0); s < NumRouterStages; s++ {
		node := SpanNode{Name: routerStageNames[s], DurationNs: t.StageNs[s]}
		if s == RouterStageFanout {
			for _, hop := range t.Hops {
				sh := StitchedHop{
					Replica:    hop.Replica,
					Rows:       hop.Rows,
					DurationNs: hop.DurationNs,
					Failover:   hop.Failover,
					Error:      hop.Err,
				}
				hopNode := SpanNode{Name: "replica " + hop.Replica, DurationNs: hop.DurationNs}
				var detail *TraceDetail
				if hop.TraceID != 0 {
					sh.TraceID = FormatTraceID(hop.TraceID)
					if d, ok := fetch(hop.Replica, hop.TraceID); ok && d != nil {
						detail = d
					}
				}
				replicaTotal := hop.ReplicaTotalNs
				if detail != nil && replicaTotal == 0 {
					replicaTotal = detail.TotalNs
				}
				sh.NetworkNs = hop.DurationNs - replicaTotal
				if sh.NetworkNs < 0 {
					sh.NetworkNs = 0
				}
				hopNode.Children = append(hopNode.Children,
					SpanNode{Name: "network", DurationNs: sh.NetworkNs})
				if detail != nil {
					sub := detail.Spans
					sub.Name = "replica request " + sh.TraceID
					hopNode.Children = append(hopNode.Children, sub)
				} else {
					sh.Missing = true
					hopNode.Children = append(hopNode.Children, SpanNode{Name: "missing"})
				}
				st.Hops = append(st.Hops, sh)
				node.Children = append(node.Children, hopNode)
			}
		} else if t.StageNs[s] == 0 {
			continue
		}
		root.Children = append(root.Children, node)
	}
	st.Spans = root
	return st
}
