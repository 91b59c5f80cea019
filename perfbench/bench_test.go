package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/balancer"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// testScale shrinks every job so a test run takes well under a second.
const testScale = 0.02

// A traced run must simulate exactly what an untraced one does, and its
// stream wrappers must see every draw the clients make.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runOnce(w, 7, testScale, timed)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runOnce(w, 7, testScale, traced)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*runResult{plain, tr} {
				if r.err != nil {
					t.Fatalf("%s run failed its checks: %v", r.kind, r.err)
				}
			}
			if plain.digest != tr.digest {
				t.Fatalf("traced digest %s != untraced %s", tr.digest, plain.digest)
			}
			var draws int64
			for _, s := range tr.tr.steps {
				draws += s.draws
			}
			// Each client's stream answers once more, with ok=false.
			if want := tr.issued + int64(len(tr.tr.streams)); draws != want {
				t.Errorf("traced %d draws, want %d (issued + one end per stream)", draws, want)
			}
			if epochs := tr.ticks / epochTicks; int64(len(tr.tr.rebals)) != epochs {
				t.Errorf("%d Rebalance spans in %d epochs", len(tr.tr.rebals), epochs)
			}
		})
	}
}

type plainStream struct{}

func (plainStream) Next() (workload.Op, bool) { return workload.Op{}, false }

type treeStream struct{ plainStream }

func (treeStream) ReadsTree() bool { return true }

type plainBalancer struct{}

func (plainBalancer) Name() string            { return "plain" }
func (plainBalancer) Rebalance(balancer.View) {}

// The wrappers expose workload.TreeReader and obs.BusCarrier exactly
// when the wrapped value does, because the cluster type-asserts both.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	if _, ok := tr.wrapStream(plainStream{}).(workload.TreeReader); ok {
		t.Error("wrapped plain stream claims to read the tree")
	}
	r, ok := tr.wrapStream(treeStream{}).(workload.TreeReader)
	if !ok || !r.ReadsTree() {
		t.Error("wrapped tree-reading stream hides workload.TreeReader")
	}
	if _, ok := tr.wrapBalancer(plainBalancer{}).(obs.BusCarrier); ok {
		t.Error("wrapped bus-less balancer claims to carry a bus")
	}
	lun := core.NewDefault()
	if _, ok := tr.wrapBalancer(lun).(obs.BusCarrier); !ok {
		t.Error("wrapped Lunule hides obs.BusCarrier")
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload and metric BENCHMARK.json names is what the command
// runs and prints, with the same unit, and every name is well formed.
// BENCHMARK.json has a fixed set of keys, so each workload's why
// records the default and held-out seeds.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
		seeds := fmt.Sprintf("default %d, held-out %d", defaultSeed, heldOutSeed)
		if !strings.Contains(w.Why, seeds) {
			t.Errorf("%s: why does not record the seeds (%q)", w.Name, seeds)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program runs %d", names, len(workloads))
	}
	for _, tc := range []struct {
		trace bool
		want  []metricSpec
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		var out bytes.Buffer
		err := bench(options{workload: "zipf-read", seed: defaultSeed, seconds: 1, trace: tc.trace, scale: testScale}, &out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("last line is not the report: %v", err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", tc.trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		if len(rep.Metrics) != len(tc.want) {
			t.Errorf("trace=%v prints %d metrics, BENCHMARK.json lists %d", tc.trace, len(rep.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("malformed metric name %q or unit %q", m.Name, m.Unit)
			}
			got, ok := rep.Metrics[m.Name]
			if !ok {
				t.Errorf("trace=%v: metric %s not printed", tc.trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "zipf-read", "--trace", "2"},
		{"--workload", "zipf-read", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}
