package dynopt

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynopt/internal/bench"
	"dynopt/internal/cluster"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenKey identifies one (query, strategy) cell of the Figure 7 grid.
type goldenKey struct {
	Query    string
	Strategy string
}

// TestCountersGolden pins Metrics.Counters for all six strategies on the
// four evaluation queries (TPC-DS Q17/Q50, TPC-H Q8/Q9) to a golden
// snapshot, without secondary indexes (Figure 7) and with them (Figure 8's
// INLJ plans, cells keyed "indexed/<query>/<strategy>"). The accountant meters *modeled* work — shuffle, broadcast,
// build/probe, materialization, spill — and that model must stay put while
// the substrate underneath it gets faster: any performance work that shifts
// these counters is changing query semantics or cost accounting, not just
// CPU time. Regenerate deliberately with `go test -run CountersGolden
// -update` and justify the diff.
func TestCountersGolden(t *testing.T) {
	got := map[string]cluster.Snapshot{}
	for _, indexed := range []bool{false, true} {
		env, err := bench.NewEnv(1, 4, indexed)
		if err != nil {
			t.Fatal(err)
		}
		prefix := ""
		if indexed {
			prefix = "indexed/"
		}
		for _, q := range bench.Queries() {
			for _, s := range env.Strategies() {
				rep, err := env.RunOne(s, q.SQL)
				if err != nil {
					t.Fatalf("%s%s/%s: %v", prefix, q.Name, s.Name(), err)
				}
				got[prefix+q.Name+"/"+s.Name()] = rep.Counters
			}
		}
	}
	path := filepath.Join("testdata", "counters_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := map[string]cluster.Snapshot{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("cell count: got %d, golden has %d", len(got), len(want))
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in golden file", k)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: counters drifted\n got: %+v\nwant: %+v", k, g, w)
		}
	}
}
