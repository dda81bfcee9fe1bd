package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dynopt"
)

// contract is the part of BENCHMARK.json the benchmark's output must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the last output line names every metric with its unit and
// that no query failed.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		w, ok := workloadByName(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the benchmark", cw.Name)
		}
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				o := options{workload: w.name, seed: 7, seconds: 0.4, trace: trace,
					sf: 1, nodes: benchNodes, setupReps: 1, workDir: t.TempDir()}
				var out, errs bytes.Buffer
				code := runWith(o, w, &out, &errs)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, contract names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !trace && res.Metrics["success_rate"].Value != 1 {
					t.Errorf("success_rate = %v, want 1", res.Metrics["success_rate"].Value)
				}
				if !strings.Contains(out.String(), "error_rate") {
					t.Error("error_rate not printed")
				}
			})
		}
	}
}

// TestRowCheckFires feeds the loop an expected set with one value changed
// and checks that every query of that key counts as a wrong-row failure.
func TestRowCheckFires(t *testing.T) {
	w, _ := workloadByName("fig7-dynamic")
	seq := sequence(w, 1, 8)
	exp, err := reference(seq, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	db := dynopt.Open(dynopt.Config{Nodes: 2})
	if err := load(db, 1); err != nil {
		t.Fatal(err)
	}
	victim := seq[0]
	res, err := db.Query(victim.sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s returned no rows", victim.key)
	}
	rows := make([]dynopt.Tuple, len(res.Rows))
	copy(rows, res.Rows)
	rows[0] = append(dynopt.Tuple(nil), rows[0]...)
	rows[0][0] = dynopt.Str("corrupted")
	exp[victim.key] = rowSetOf(rows)

	r := runLoop(db, seq, 0, 1, 300*time.Millisecond, exp, nil)
	if r.mismatched == 0 || r.failed < r.mismatched || r.firstErr == nil {
		t.Fatalf("corrupted expectation not caught: mismatched=%d failed=%d", r.mismatched, r.failed)
	}
	if fin := finish(&bytes.Buffer{}, nil, r.attempted, r.failed, r.mismatched, r.firstErr); fin.Correct {
		t.Fatal("result reads correct despite wrong rows")
	}
}

func TestRowSetIsMultiset(t *testing.T) {
	a := dynopt.Tuple{dynopt.Int(1), dynopt.Str("x")}
	b := dynopt.Tuple{dynopt.Int(2), dynopt.Float(0.5)}
	if rowSetOf([]dynopt.Tuple{a, b, b}) != rowSetOf([]dynopt.Tuple{b, a, b}) {
		t.Error("row order changed the set")
	}
	if rowSetOf([]dynopt.Tuple{a, b}) == rowSetOf([]dynopt.Tuple{a, b, b}) {
		t.Error("a duplicate row went unnoticed")
	}
}

func TestLayerTimes(t *testing.T) {
	spans := []span{
		{Name: "query", ID: 1, QID: 1, Start: 0, End: 100},
		{Name: "engine.execute", ID: 2, Parent: 1, QID: 1, Start: 100, End: 150},
		{Name: "engine.scan", ID: 3, Parent: 2, QID: 1, Start: 110, End: 130},
		{Name: "engine.scan", ID: 4, Parent: 2, QID: 1, Start: 120, End: 140},
		{Name: "query", ID: 5, QID: 2, Start: 200, End: 300},
	}
	ms, coverage, roots := layerTimes(spans)
	if roots != 2 {
		t.Fatalf("roots = %d", roots)
	}
	// execute covers 50 ns, its scans overlap on [110,140]: self 20 ns.
	if got, want := ms["engine.execute"], 20.0/1e6/2; got != want {
		t.Errorf("execute self = %v, want %v", got, want)
	}
	if got, want := ms["engine.scan"], 40.0/1e6/2; got != want {
		t.Errorf("scan self = %v, want %v", got, want)
	}
	if got, want := coverage, 60.0/200; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

func TestSequenceDependsOnSeed(t *testing.T) {
	w, _ := workloadByName("serve-memo")
	a, b, c := sequence(w, 1, 64), sequence(w, 1, 64), sequence(w, 2, 64)
	same := func(x, y []item) bool {
		for i := range x {
			if x[i].key != y[i].key {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed gave different sequences")
	}
	if same(a, c) {
		t.Error("different seeds gave the same sequence")
	}
}
