package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"
	"time"
)

func mustBuild(t *testing.T, g geometry) *bench {
	t.Helper()
	enc, err := g.build()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{seed: 7, enc: enc}
}

// requests renders the first requests every generator sends for a seed.
func requests(t *testing.T, seed uint64) [][]byte {
	t.Helper()
	paper, store := mustBuild(t, geomPaper), mustBuild(t, geomStore)
	var out [][]byte
	for s := 0; s < ingestStreams; s++ {
		gen := newIngestStream(paper.enc, seed, s)
		for i := 0; i < 20; i++ {
			f, err := gen.frame()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f.payload)
		}
	}
	pm := newPMGen(paper.enc, seed, tagPostmortem)
	for i := 0; i < 60; i++ {
		q, err := pm.query()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q.body)
	}
	rd := newFXReader(seed)
	for i := 0; i < 60; i++ {
		o := rd.read()
		body, err := o.body()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, []byte(o.path()), body)
	}
	for _, dev := range []int{-1, 0, fxDevices - 1} {
		for idx := 0; idx < 5; idx++ {
			f, err := fxFrame(store.enc, seed, dev, idx)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f.payload)
		}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b, other := requests(t, 11), requests(t, 11), requests(t, 12)
	if len(a) != len(b) {
		t.Fatalf("%d requests vs %d", len(a), len(b))
	}
	differ := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two runs of seed 11", i)
		}
		if !bytes.Equal(a[i], other[i]) {
			differ++
		}
	}
	if differ < len(a)/2 {
		t.Fatalf("seeds 11 and 12 share %d of %d requests", len(a)-differ, len(a))
	}
}

func TestPostmortemMixIsExact(t *testing.T) {
	b := mustBuild(t, geomPaper)
	gen := newPMGen(b.enc, 3, tagPostmortem)
	counts := map[int]int{}
	for i := 0; i < 10*len(pmBlock); i++ {
		q, err := gen.query()
		if err != nil {
			t.Fatal(err)
		}
		if q.windowed {
			for _, c := range q.changes {
				if c >= pmWindowHi {
					t.Fatalf("windowed query plants change %d outside the window", c)
				}
			}
		}
		counts[q.entry.K]++
	}
	want := map[int]int{3: 50, 4: 20, 5: 33, 6: 33, 7: 32, 8: 32}
	if !maps.Equal(counts, want) {
		t.Fatalf("k mix over 200 queries = %v, want %v", counts, want)
	}
}

// A short seeded postmortem replay gives exactly the same solver and
// route counts twice, and on its traced and untraced replayer alike.
func TestPostmortemReplayRepeats(t *testing.T) {
	w, err := findWorkload("postmortem")
	if err != nil {
		t.Fatal(err)
	}
	b := mustBuild(t, geomPaper)
	effort := func(r *replayRun) map[string]int64 {
		out := map[string]int64{}
		for name, v := range r.counts {
			if strings.HasPrefix(name, "sat.") || strings.HasPrefix(name, "reconstruct.dispatch.") {
				out[name] = v
			}
		}
		return out
	}
	var runs []map[string]int64
	for i := 0; i < 2; i++ {
		traced, plain, _, err := runReplays(w, b, newTracer(), t.TempDir(), len(pmBlock))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, effort(traced), effort(plain))
	}
	if runs[0]["sat.conflicts"] == 0 || runs[0]["reconstruct.dispatch.chosen.sat-inc"] == 0 {
		t.Fatalf("replay did no SAT work: %v", runs[0])
	}
	for _, r := range runs[1:] {
		if !maps.Equal(runs[0], r) {
			t.Fatalf("counts differ between replays of one seed:\n%v\n%v", runs[0], r)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100): children a [10,30) and b [20,50) overlap, c [90,120)
	// runs past the root's end; a has a grandchild g [12,18).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "g", Start: 12, End: 18},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPercentileSupport(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.99, 99, false},  // 1 sample beyond
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, supported %t; want %v, %t", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

// The metrics the command prints are exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	run := &replayRun{opWall: map[int]time.Duration{}}
	for _, c := range []struct {
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{
		{endToEnd(&runResult{}, nil, 0), spec.EndToEnd},
		{perLayer(layerInput{traced: run, plain: run, daemon: &runResult{}}), spec.PerLayer},
	} {
		units := map[string]string{}
		for name, m := range c.got {
			units[name] = m.Unit
		}
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		if !maps.Equal(units, want) {
			t.Errorf("printed metrics %v, BENCHMARK.json declares %v", units, want)
		}
	}
}

// One slow stretch of the run moves the run-wide p99 but not the
// windowed one.
func TestWindowedP99(t *testing.T) {
	t0 := time.Now()
	var samples []sample
	var all []float64
	for i := 0; i < 3*tailWindow; i++ {
		ms := float64(1 + i%100) // per window: p99 = 99
		if i >= 2*tailWindow {
			ms *= 10 // the last window runs on a slowed machine
		}
		// Recorded out of completion order, as two streams append them.
		samples = append([]sample{{op: i, ms: ms, done: t0.Add(time.Duration(i) * time.Millisecond)}}, samples...)
		all = append(all, ms)
	}
	if p, _ := percentile(all, 0.99); p != 970 {
		t.Fatalf("run-wide p99 = %v, want 970", p)
	}
	if p, n := windowedP99(samples); p != 99 || n != 3 {
		t.Fatalf("windowed p99 = %v over %d windows, want 99 over 3", p, n)
	}
}
