package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"thymesim/internal/core"
)

// smallOptions shrinks the workloads' sizes so the harness can be tested
// in seconds; their outputs then differ from results/. STREAM's arrays
// still overflow the 64 KiB LLC, or no remote traffic would follow the
// lender restore and the breaker-recovery audit could not pass.
func smallOptions(seed uint64) core.Options {
	o := core.Default()
	o.StreamElements = 1 << 12
	o.GraphScale = 8
	o.KVRequests = 2
	o.Seed = seed
	return o
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkNamed fails t unless m holds exactly the named metrics, each with
// its declared unit.
func checkNamed(t *testing.T, what string, m map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, w.Name, got.Unit, w.Unit)
		}
	}
	if len(m) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", what, len(m), len(want))
	}
}

// TestWorkloadsReportEveryMetric runs every workload traced, twice, at
// reduced sizes: each run must report every metric BENCHMARK.json names
// with its unit, and the two runs must write the same CSV bytes and count
// exactly the same simulated work.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := loadBenchmark(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(names, defined) {
		t.Fatalf("BENCHMARK.json workloads %v, harness defines %v", names, defined)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var reports [2]*childReport
			var digests [2]string
			for i := range reports {
				dir := t.TempDir()
				cr, err := runChild(modeTraced, w, smallOptions(3), dir)
				if err != nil {
					t.Fatal(err)
				}
				var c checks
				if digests[i], err = checkRun(&c, cr, dir, w, "", ""); err != nil {
					t.Fatal(err)
				}
				if c.failed != 0 {
					t.Fatalf("checks failed: %v", c.problems)
				}
				reports[i] = cr
			}
			e2e := endToEndMetrics([]float64{1}, []float64{reports[0].WallS}, []float64{reports[0].CPUS}, []float64{1}, []float64{reports[0].AllocMB})
			checkNamed(t, "end to end", e2e, bf.EndToEnd)
			layers, err := layerMetrics(reports[:1], reports[:1])
			if err != nil {
				t.Fatal(err)
			}
			checkNamed(t, "per layer", layers, bf.PerLayer)

			if digests[0] != digests[1] {
				t.Errorf("digests differ: %s vs %s", digests[0], digests[1])
			}
			if !reflect.DeepEqual(reports[0].Counts, reports[1].Counts) {
				t.Errorf("exact counts differ:\n%+v\n%+v", *reports[0].Counts, *reports[1].Counts)
			}
		})
	}
}

// TestCheckerFlagsAlteredCSV copies the committed faults CSVs, checks
// that they pass, then alters one byte and adds a stray file.
func TestCheckerFlagsAlteredCSV(t *testing.T) {
	w, err := workloadByName("faults")
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join("..", "results")
	dir := t.TempDir()
	for _, name := range w.csvs {
		b, err := os.ReadFile(filepath.Join(ref, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var clean checks
	d0, err := checkCSVs(&clean, dir, w.csvs, ref)
	if err != nil {
		t.Fatal(err)
	}
	if clean.failed != 0 || clean.n != 1+len(w.csvs) {
		t.Fatalf("copies of the references: %d of %d checks failed: %v", clean.failed, clean.n, clean.problems)
	}

	altered := filepath.Join(dir, "chaos_table.csv")
	b, err := os.ReadFile(altered)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(altered, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var bad checks
	d1, err := checkCSVs(&bad, dir, w.csvs, ref)
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed != 1 || !strings.Contains(bad.problems[0], "chaos_table.csv") {
		t.Errorf("altered chaos_table.csv: failed %d, problems %v", bad.failed, bad.problems)
	}
	if d0 == d1 {
		t.Error("digest did not change with the CSV bytes")
	}

	if err := os.WriteFile(filepath.Join(dir, "stray.csv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stray checks
	if _, err := checkCSVs(&stray, dir, w.csvs, ""); err != nil {
		t.Fatal(err)
	}
	if stray.failed != 1 {
		t.Errorf("stray CSV: failed %d, problems %v", stray.failed, stray.problems)
	}
}

func TestFuncLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"thymesim/internal/sim.(*Kernel).step":                  "sim",
		"thymesim/internal/axis.(*FIFO).Push":                   "axis",
		"thymesim/internal/pool.(*Allocator).Alloc":             "cluster",
		"thymesim/internal/workloads/graph500.(*Runner).sssp":   "workloads",
		"thymesim/internal/metrics.(*Series).Add":               "core",
		"thymesim/internal/metricsplane.(*Registry).Counter":    "other",
		"thymesim/internal/core.Options.RunPoolChaos.func1":     "core",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "runtime",
		"sync/atomic.(*Int64).Add":                              "other",
		"main.main":                                             "other",
		"":                                                      "other",
		"thymesim/internal/simx.Foo":                            "other",
		"thymesim/internal/sweep.Map[...].func1":                "sweep",
		"thymesim/internal/sweep.Map[thymesim/internal/core.X]": "sweep",
	} {
		if got := funcLayer(fn); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestReasonsCoverPerLayer checks that reasons.json gives every per-layer
// metric of BENCHMARK.json, and only those, its end-to-end metrics and
// workloads, each naming something BENCHMARK.json defines.
func TestReasonsCoverPerLayer(t *testing.T) {
	bf := loadBenchmark(t)
	b, err := os.ReadFile("reasons.json")
	if err != nil {
		t.Fatal(err)
	}
	var rf struct {
		PerLayer map[string]struct {
			Moves []string
			On    *string
			NotOn []string `json:"not_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, w := range bf.Workloads {
		wl[w.Name] = true
	}
	for _, m := range bf.PerLayer {
		r, ok := rf.PerLayer[m.Name]
		if !ok {
			t.Errorf("%s has no reason", m.Name)
			continue
		}
		for _, e := range r.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		if (r.On == nil) != (len(r.Moves) == 0) {
			t.Errorf("%s: a workload must be given exactly when end-to-end metrics are", m.Name)
		}
		if r.On != nil && !wl[*r.On] {
			t.Errorf("%s: unknown workload %q", m.Name, *r.On)
		}
		for _, w := range r.NotOn {
			if !wl[w] || (r.On != nil && w == *r.On) {
				t.Errorf("%s: bad not_on workload %q", m.Name, w)
			}
		}
	}
	if len(rf.PerLayer) != len(bf.PerLayer) {
		t.Errorf("reasons.json has %d entries, BENCHMARK.json %d per-layer metrics", len(rf.PerLayer), len(bf.PerLayer))
	}
}
