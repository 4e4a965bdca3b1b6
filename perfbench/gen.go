package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/service"
)

// Every input the daemon sees is generated here from the workload seed,
// so one seed names one byte-exact request stream (pinned by
// TestSameSeedSameRequests).

// rng is a splitmix64 stream: cheap to seed per frame and stable across
// Go releases, so a seed names the same inputs on every toolchain.
type rng struct{ s uint64 }

// newRNG derives an independent stream from a list of labels (seed,
// stream tag, device, frame index, ...).
func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x6a09e667f3bcc909}
	for _, p := range parts {
		r.s ^= p
		r.s = r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// weighted picks index i with probability w[i]/sum(w).
func (r *rng) weighted(w []int) int {
	sum := 0
	for _, x := range w {
		sum += x
	}
	n := r.intn(sum)
	for i, x := range w {
		if n < x {
			return i
		}
		n -= x
	}
	return len(w) - 1
}

// changes draws k distinct sorted change instants in [0, hi).
func (r *rng) changes(k, hi int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		c := r.intn(hi)
		dup := false
		for _, x := range out {
			dup = dup || x == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// Stream tags keep the generators' RNG streams apart.
const (
	tagIngest uint64 = iota + 1
	tagPostmortem
	tagPreload
	tagReader
	tagWriter
	tagWarm
	tagLadder
)

// geometry is a trace-cycle shape: m clock-cycles per trace-cycle, b-bit
// timestamps. Every encoding is the service default, incremental LI-4.
type geometry struct{ m, b int }

var (
	// geomPaper is the paper's Table 1 geometry.
	geomPaper = geometry{m: 512, b: 22}
	// geomStore is the cheaper fleet-log geometry of the forensics store.
	geomStore = geometry{m: 128, b: 16}
)

func (g geometry) build() (*encoding.Encoding, error) { return encoding.Incremental(g.m, g.b, 4) }

func (g geometry) spec() service.EncodingSpec {
	return service.EncodingSpec{Scheme: "incremental", M: g.m, B: g.b}
}

// frameEntries is the entry count of every wire frame the benchmark
// sends or stores.
const frameEntries = 32

// frame is one generated wire log with the change sets it was logged
// from, kept for answer checks.
type frame struct {
	changes [][]int
	entries []core.LogEntry
	payload []byte
}

func makeFrame(enc *encoding.Encoding, changes [][]int) (frame, error) {
	f := frame{changes: changes, entries: make([]core.LogEntry, len(changes))}
	for i, c := range changes {
		f.entries[i] = core.Log(enc, core.SignalFromChanges(enc.M(), c...))
	}
	var buf bytes.Buffer
	if err := core.WriteLog(&buf, enc.M(), enc.B(), f.entries); err != nil {
		return frame{}, err
	}
	f.payload = buf.Bytes()
	return f, nil
}

// ingestStream generates one fleet device's stream: k in {0,1,2,3} at
// weights 50/25/20/5, and 30% of entries repeating one of the stream's
// last 256 entries, like a periodic signal.
type ingestStream struct {
	enc  *encoding.Encoding
	r    *rng
	hist [][]int
	next int
}

var ingestKWeights = []int{50, 25, 20, 5}

const (
	ingestRepeatShare = 0.30
	ingestHistory     = 256
)

func newIngestStream(enc *encoding.Encoding, seed uint64, stream int) *ingestStream {
	return &ingestStream{enc: enc, r: newRNG(seed, tagIngest, uint64(stream))}
}

func (s *ingestStream) frame() (frame, error) {
	changes := make([][]int, frameEntries)
	for i := range changes {
		if len(s.hist) > 0 && s.r.float() < ingestRepeatShare {
			changes[i] = s.hist[s.r.intn(len(s.hist))]
		} else {
			changes[i] = s.r.changes(s.r.weighted(ingestKWeights), s.enc.M())
		}
		if len(s.hist) < ingestHistory {
			s.hist = append(s.hist, changes[i])
		} else {
			s.hist[s.next] = changes[i]
			s.next = (s.next + 1) % ingestHistory
		}
	}
	return makeFrame(s.enc, changes)
}

// pmQuery is one postmortem debugger query.
type pmQuery struct {
	changes  []int
	entry    core.LogEntry
	windowed bool
	body     []byte
}

// The postmortem window: the first 48 clock-cycles of the trace-cycle.
const (
	pmWindowHi = 48
	pmWindow   = "window(0,48)"
)

// pmJob mirrors the service's JSON job spec for an inline TP/k query.
type pmJob struct {
	Encoding   service.EncodingSpec `json:"encoding"`
	TP         string               `json:"tp"`
	K          int                  `json:"k"`
	Properties string               `json:"properties,omitempty"`
	Limit      int                  `json:"limit,omitempty"`
}

// pmGen generates distinct postmortem queries: 25% k=3 and 10% k=4
// unconstrained (decode route), 65% k=5..8 under window(0,48) with
// limit 1 (sat-inc route). Windowed queries plant their changes inside
// the window, so every query has an answer. The mix is drawn in
// shuffled blocks of 20 and the windowed k cycles through 5..8, so
// every seed has the same shares: a k=4 decode costs ~20x a windowed
// query, and a seed-to-seed wobble in its share would swamp the
// throughput figures.
type pmGen struct {
	enc      *encoding.Encoding
	r        *rng
	seen     map[string]bool
	block    []int
	windowed int
}

// pmBlock is one block of the mix: the k of each unconstrained query,
// 0 for a windowed one.
var pmBlock = []int{3, 3, 3, 3, 3, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}

func newPMGen(enc *encoding.Encoding, seed uint64, tag uint64) *pmGen {
	return &pmGen{enc: enc, r: newRNG(seed, tag), seen: map[string]bool{}}
}

// query draws the next query of the mix.
func (g *pmGen) query() (pmQuery, error) {
	if len(g.block) == 0 {
		g.block = append(g.block, pmBlock...)
		for i := len(g.block) - 1; i > 0; i-- {
			j := g.r.intn(i + 1)
			g.block[i], g.block[j] = g.block[j], g.block[i]
		}
	}
	k := g.block[0]
	g.block = g.block[1:]
	return g.build(k)
}

// build makes a distinct query with k changes anywhere, or for k == 0
// a windowed query whose k cycles through 5..8.
func (g *pmGen) build(k int) (pmQuery, error) {
	q := pmQuery{windowed: k == 0}
	if q.windowed {
		k = 5 + g.windowed%4
		g.windowed++
	}
	for {
		if q.windowed {
			q.changes = g.r.changes(k, pmWindowHi)
		} else {
			q.changes = g.r.changes(k, g.enc.M())
		}
		q.entry = core.Log(g.enc, core.SignalFromChanges(g.enc.M(), q.changes...))
		id := fmt.Sprintf("%s/%d/%t", q.entry.TP.Key(), q.entry.K, q.windowed)
		if !g.seen[id] { // every query is distinct, so the result cache never answers
			g.seen[id] = true
			break
		}
	}
	job := pmJob{Encoding: geomPaper.spec(), TP: q.entry.TP.String(), K: q.entry.K}
	if q.windowed {
		job.Properties, job.Limit = pmWindow, 1
	}
	var err error
	q.body, err = json.Marshal(job)
	return q, err
}

// Forensics store shape: fxDevices x fxPerDev preloaded frames of
// k <= 2 entries at geomStore, one frame per millisecond of epoch.
const (
	fxDevices     = 16
	fxPerDev      = 16000
	fxSignal      = "bus"
	fxEpoch0      = 1_000_000
	fxEpochStep   = 1000
	fxExportSpan  = 64
	fxReplaySpan  = 4
	fxWriterHz    = 20
	fxLiveDevice  = "live-00"
	fxReadExports = 0.5
)

var fxKWeights = []int{40, 35, 25}

func fxDevice(d int) string { return fmt.Sprintf("dev-%02d", d) }

func fxEpoch(idx int) int64 { return fxEpoch0 + int64(idx)*fxEpochStep }

// fxFrame generates stored frame idx of device dev (dev < 0 is the live
// writer's stream); each frame has its own RNG stream, so any frame can
// be regenerated for a check without replaying the others.
func fxFrame(enc *encoding.Encoding, seed uint64, dev, idx int) (frame, error) {
	var r *rng
	if dev < 0 {
		r = newRNG(seed, tagWriter, uint64(idx))
	} else {
		r = newRNG(seed, tagPreload, uint64(dev), uint64(idx))
	}
	changes := make([][]int, frameEntries)
	for i := range changes {
		changes[i] = r.changes(r.weighted(fxKWeights), enc.M())
	}
	return makeFrame(enc, changes)
}

// fxRead is one forensic reader request: a 64-frame range export with
// bodies, or a 4-frame count-only replay.
type fxRead struct {
	export bool
	dev    int
	start  int
}

func (o fxRead) frames() int {
	if o.export {
		return fxExportSpan
	}
	return fxReplaySpan
}

func (o fxRead) path() string {
	return fmt.Sprintf("/v1/logs?device=%s&signal=%s&from_epoch_us=%d&to_epoch_us=%d&limit=%d&include_bodies=1",
		fxDevice(o.dev), fxSignal, fxEpoch(o.start), fxEpoch(o.start+fxExportSpan-1), fxExportSpan)
}

// fxQuery mirrors the service's POST /v1/query body.
type fxQuery struct {
	Device      string `json:"device"`
	Signal      string `json:"signal"`
	FromEpochUS int64  `json:"from_epoch_us"`
	ToEpochUS   int64  `json:"to_epoch_us"`
	CountOnly   bool   `json:"count_only"`
	MaxRecords  int    `json:"max_records"`
}

func (o fxRead) body() ([]byte, error) {
	return json.Marshal(fxQuery{
		Device: fxDevice(o.dev), Signal: fxSignal,
		FromEpochUS: fxEpoch(o.start), ToEpochUS: fxEpoch(o.start + fxReplaySpan - 1),
		CountOnly: true, MaxRecords: fxReplaySpan,
	})
}

type fxReader struct{ r *rng }

func newFXReader(seed uint64) *fxReader { return &fxReader{r: newRNG(seed, tagReader)} }

func (g *fxReader) read() fxRead {
	o := fxRead{export: g.r.float() < fxReadExports, dev: g.r.intn(fxDevices)}
	o.start = g.r.intn(fxPerDev - o.frames() + 1)
	return o
}
