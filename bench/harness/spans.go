package harness

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark's own files around the call (spans inside the program are a
// later change). Spans of one job share its trace ID where the layer
// carries one. There is no parent link: a context crossing the hops
// does not exist yet, so nesting is resolved in aggregate by SelfTimes.
type Span struct {
	Trace string `json:"trace,omitempty"`
	Layer string `json:"layer"`
	// Node names the instance of the layer (shard id, tenant), empty
	// when there is only one.
	Node  string `json:"node,omitempty"`
	Op    string `json:"op"`
	Queue string `json:"queue,omitempty"`
	// Start and End are nanoseconds since the recorder's epoch.
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Msgs  int    `json:"msgs,omitempty"`
	Err   string `json:"err,omitempty"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps one layer instance's spans in memory until the run
// ends. Each interposer owns one, so recording contends only within a
// layer.
type Recorder struct {
	Layer, Node string
	epoch       time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty recorder whose spans are stamped relative
// to epoch (shared by every recorder of a run so spans line up).
func NewRecorder(layer, node string, epoch time.Time) *Recorder {
	return &Recorder{Layer: layer, Node: node, epoch: epoch}
}

// Add records one call that began at start and has just returned.
func (r *Recorder) Add(trace, op, queueName string, start time.Time, msgs int, err error) {
	end := time.Now()
	sp := Span{
		Trace: trace, Layer: r.Layer, Node: r.Node, Op: op, Queue: queueName,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Msgs: msgs,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Since converts a wall-clock instant to the recorder's span timebase.
func (r *Recorder) Since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// Window keeps the spans that started inside [from, to).
func Window(spans []Span, from, to int64) []Span {
	var out []Span
	for _, s := range spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// SumByOp totals span time per op.
func SumByOp(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Op] += s.Dur()
	}
	return out
}

// Total is the summed duration of spans.
func Total(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.Dur()
	}
	return d
}

// Nest is one level of the call nesting, outermost first: every call of
// layer Layer encloses the calls of the next level, so a level's self
// time per op is its own span time minus the next level's.
type Nest struct {
	Layer string
	ByOp  map[string]time.Duration
}

// SelfTimes resolves aggregate nesting: for levels ordered outermost to
// innermost, self[layer][op] = sum(layer, op) − sum(next layer, op); the
// innermost level keeps its whole sum. An op the inner level reports
// but the outer does not (a hop that renames ops) is charged to the
// outer level's "other" so that no time is dropped: the selfs of all
// levels always add up to the outermost level's total.
func SelfTimes(levels []Nest) map[string]map[string]time.Duration {
	out := make(map[string]map[string]time.Duration, len(levels))
	for i, lv := range levels {
		self := make(map[string]time.Duration, len(lv.ByOp))
		for op, d := range lv.ByOp {
			self[op] = d
		}
		if i+1 < len(levels) {
			for op, d := range levels[i+1].ByOp {
				if _, ok := self[op]; ok {
					self[op] -= d
				} else {
					self["other"] -= d
				}
			}
		}
		out[lv.Layer] = self
	}
	return out
}

// Attribution splits a budget of worker-seconds (workers × wall) into
// the named self times and what is left over. The residual is reported,
// never hidden: Residual = Total − Σ Selfs by construction.
type Attribution struct {
	Total    time.Duration
	Selfs    map[string]time.Duration
	Residual time.Duration
}

// Attribute computes the residual of total after the given self times.
func Attribute(total time.Duration, selfs map[string]time.Duration) Attribution {
	a := Attribution{Total: total, Selfs: selfs, Residual: total}
	for _, d := range selfs {
		a.Residual -= d
	}
	return a
}

// Share is the residual as a fraction of the total.
func (a Attribution) Share() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Residual) / float64(a.Total)
}

// sumMap adds up one layer's per-op self times.
func sumMap(m map[string]time.Duration) time.Duration {
	var d time.Duration
	for _, v := range m {
		d += v
	}
	return d
}

// LayerSelf is the total self time SelfTimes assigned to one layer.
func LayerSelf(selfs map[string]map[string]time.Duration, layer string) time.Duration {
	return sumMap(selfs[layer])
}

// WriteSpans writes spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
