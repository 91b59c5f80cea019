package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/balancer"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// tracer records the spans of one traced run at the layer boundaries
// the benchmark owns: workload.Generator.Setup, each client's
// workload.Stream.Next, balancer.Balancer.Rebalance and Cluster.Step.
// One span per Next would be millions, so stream draws are summed into
// the Step span they ran in. Spans stay in memory until the run ends.
type tracer struct {
	origin  time.Time
	setup   span
	streams []*tracedStream
	steps   []stepSpan
	rebals  []span

	drawNs, draws int64 // stream totals at the end of the last step
}

// span is one timed interval, in nanoseconds since the run started.
type span struct {
	start, dur int64
	parent     int // index of the enclosing Step span; -1 for none
}

// stepSpan is one Cluster.Step with the stream draws made inside it
// summed in; its Rebalance child is a span of its own.
type stepSpan struct {
	tick   int64
	start  int64
	dur    int64
	drawNs int64
	draws  int64
	epoch  bool // the step closed an epoch
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// endStep closes the Step span that started at start and folds in the
// stream draws made since the previous step.
func (t *tracer) endStep(tick int64, start time.Time, dur time.Duration) {
	var ns, calls int64
	for _, s := range t.streams {
		ns += s.ns
		calls += s.calls
	}
	t.steps = append(t.steps, stepSpan{
		tick:   tick,
		start:  t.since(start),
		dur:    int64(dur),
		drawNs: ns - t.drawNs,
		draws:  calls - t.draws,
		epoch:  (tick+1)%epochTicks == 0,
	})
	t.drawNs, t.draws = ns, calls
}

// tracedGen times Generator.Setup and wraps every client stream.
type tracedGen struct {
	inner workload.Generator
	t     *tracer
}

func (g *tracedGen) Name() string { return g.inner.Name() }

func (g *tracedGen) Setup(tree *namespace.Tree, clients int, src *rng.Source) ([]workload.ClientSpec, error) {
	start := time.Now()
	specs, err := g.inner.Setup(tree, clients, src)
	g.t.setup = span{start: g.t.since(start), dur: int64(time.Since(start)), parent: -1}
	for i := range specs {
		specs[i].Stream = g.t.wrapStream(specs[i].Stream)
	}
	return specs, err
}

// tracedStream accumulates the time and count of its stream's draws.
// A client's stream is drawn by one goroutine at a time and the engine
// joins its workers before Step returns, so the counters need no lock.
type tracedStream struct {
	inner     workload.Stream
	ns, calls int64
}

func (s *tracedStream) Next() (workload.Op, bool) {
	start := time.Now()
	op, ok := s.inner.Next()
	s.ns += int64(time.Since(start))
	s.calls++
	return op, ok
}

// treeReaderStream keeps workload.TreeReader visible through the
// wrapper: the engine must not draw ahead of an unadopted create for
// streams that read the tree.
type treeReaderStream struct {
	*tracedStream
	tr workload.TreeReader
}

func (s treeReaderStream) ReadsTree() bool { return s.tr.ReadsTree() }

func (t *tracer) wrapStream(s workload.Stream) workload.Stream {
	ts := &tracedStream{inner: s}
	t.streams = append(t.streams, ts)
	if tr, ok := s.(workload.TreeReader); ok {
		return treeReaderStream{ts, tr}
	}
	return ts
}

// tracedBalancer times Rebalance as a child span of the current Step.
type tracedBalancer struct {
	inner balancer.Balancer
	t     *tracer
}

func (b *tracedBalancer) Name() string { return b.inner.Name() }

func (b *tracedBalancer) Rebalance(v balancer.View) {
	start := time.Now()
	b.inner.Rebalance(v)
	b.t.rebals = append(b.t.rebals, span{start: b.t.since(start), dur: int64(time.Since(start)), parent: len(b.t.steps)})
}

// busBalancer keeps obs.BusCarrier visible through the wrapper, so the
// cluster still hands the balancer its trace bus.
type busBalancer struct {
	*tracedBalancer
	bc obs.BusCarrier
}

func (b busBalancer) SetBus(bus *obs.Bus) { b.bc.SetBus(bus) }

func (t *tracer) wrapBalancer(b balancer.Balancer) balancer.Balancer {
	tb := &tracedBalancer{inner: b, t: t}
	if bc, ok := b.(obs.BusCarrier); ok {
		return busBalancer{tb, bc}
	}
	return tb
}

// spanRecord is one line of the span file: name, interval, the span
// that caused it, and for the summed draws the number of calls.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Calls   int64  `json:"calls,omitempty"`
	Tick    int64  `json:"tick"`
}

// write stores the spans as JSON lines. Step i has id i+1; the setup
// span has id 0; children name their Step as parent.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(r spanRecord) {
		if err == nil {
			err = enc.Encode(r)
		}
	}
	emit(spanRecord{ID: 0, Parent: -1, Name: "workload.Generator.Setup", StartNs: t.setup.start, DurNs: t.setup.dur, Tick: -1})
	next := len(t.steps) + 1
	for i, s := range t.steps {
		emit(spanRecord{ID: i + 1, Parent: -1, Name: "cluster.Step", StartNs: s.start, DurNs: s.dur, Tick: s.tick})
		if s.draws > 0 {
			emit(spanRecord{ID: next, Parent: i + 1, Name: "workload.Stream.Next", StartNs: s.start, DurNs: s.drawNs, Calls: s.draws, Tick: s.tick})
			next++
		}
	}
	for _, r := range t.rebals {
		emit(spanRecord{ID: next, Parent: r.parent + 1, Name: "balancer.Balancer.Rebalance", StartNs: r.start, DurNs: r.dur, Tick: t.steps[r.parent].tick})
		next++
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
