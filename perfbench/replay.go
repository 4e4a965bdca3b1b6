package main

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/properties"
	"repro/internal/reconstruct"
)

// The replay pushes a fixed number of a workload's seeded ops through
// each layer's public functions in-process, one op at a time, in the
// order the daemon's request path calls them. Two replayers run the
// same ops in lockstep, one traced with a span around every call and
// one untraced, alternating which goes first; pairing each op with
// itself keeps the tracing overhead clear of the machine's drift. A
// fixed op count (not a time budget) makes the route and solver counts
// repeat exactly for a seed.

// Span names: one per layer function the replay calls. The features
// span is a probe: EnumerateRouted runs the same elimination inside,
// so the replay calls Features on its own to time it, and the probe is
// left out of an op's summed layer time.
const (
	spanBuild      = "encoding.Incremental"
	spanOpen       = "logstore.Open"
	spanReadLog    = "core.ReadLog"
	spanKey        = "bitvec.Vector.Key"
	spanFeatures   = "reconstruct.Dispatcher.Features"
	spanEnumerate  = "reconstruct.Dispatcher.EnumerateRouted"
	spanAppend     = "logstore.Append"
	spanQuery      = "logstore.Query"
	rootFrame      = "op.frame"
	rootQuery      = "op.query"
	rootExport     = "op.export"
	rootReplay     = "op.replay"
	rootWrite      = "op.write"
	rootLadder     = "ladder"
	rootLadderScan = "ladder.export"
)

// Op ids: the daemon-phase op id for workload ops, so a replayed op
// pairs with its measured latency; setUpOp for the encoding builds and
// the store open; ladder ops count down from ladderOp.
const (
	setUpOp  = -1
	ladderOp = -2
)

// resultCacheEntries is the daemon's default result-cache size; the
// replay keeps a key-only LRU of the same size so it solves exactly the
// entries the daemon would have to solve.
const resultCacheEntries = 1024

type keyLRU struct {
	max   int
	ll    *list.List
	items map[string]*list.Element
}

func newKeyLRU(max int) *keyLRU {
	return &keyLRU{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// hit reports whether key is cached, and caches it if not.
func (c *keyLRU) hit(key string) bool {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	c.items[key] = c.ll.PushFront(key)
	if c.ll.Len() > c.max {
		delete(c.items, c.ll.Remove(c.ll.Back()).(string))
	}
	return false
}

// replayer is one in-process copy of the daemon's request path: its own
// encoding and dispatcher (configured like the daemon's), a result-cache
// model, and a log store.
type replayer struct {
	tr     *tracer
	enc    *encoding.Encoding
	disp   *reconstruct.Dispatcher
	reg    *obs.Registry
	store  *logstore.Store
	cache  *keyLRU
	window []reconstruct.Constraint
	solves int
	// opWall is every workload op's wall time, so the tracing overhead
	// compares the same op on the traced and the untraced replayer.
	opWall map[int]time.Duration
}

// newReplayer builds the encoding and a dispatcher configured like the
// daemon's, under the set-up op.
func newReplayer(tr *tracer, g geometry) (*replayer, error) {
	rp := &replayer{tr: tr, reg: obs.NewRegistry(), cache: newKeyLRU(resultCacheEntries), opWall: map[int]time.Duration{}}
	id := tr.begin(setUpOp, 0, spanBuild)
	enc, err := g.build()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rp.enc = enc
	if rp.disp, err = reconstruct.NewDispatcher(enc, reconstruct.DispatchOptions{Workers: 1, Obs: rp.reg}); err != nil {
		return nil, err
	}
	w, err := properties.Parse(pmWindow)
	if err != nil {
		return nil, err
	}
	rp.window = []reconstruct.Constraint{w}
	return rp, nil
}

// solve mirrors the daemon's per-entry path: the cache key, the result
// cache, then feature extraction and the routed solve on a miss.
func (rp *replayer) solve(op, root int, e core.LogEntry, cons []reconstruct.Constraint, limit int) error {
	id := rp.tr.begin(op, root, spanKey)
	key := e.TP.Key()
	rp.tr.end(id)
	if rp.cache.hit(fmt.Sprintf("%s|%d|%d|%d", key, e.K, len(cons), limit)) {
		return nil
	}
	id = rp.tr.begin(op, root, spanFeatures)
	_, err := rp.disp.Features(e, cons)
	rp.tr.end(id)
	if err != nil {
		return err
	}
	id = rp.tr.begin(op, root, spanEnumerate)
	_, _, dec, err := rp.disp.EnumerateRouted(context.Background(), e, cons, limit)
	rp.tr.end(id)
	rp.tr.tag(id, dec.Route, e.K)
	rp.solves++
	return err
}

// ingestFrame replays one streamed frame: decode, solve every entry,
// tee into the store.
func (rp *replayer) ingestFrame(op int, root string, device string, idx int, payload []byte) error {
	r := rp.tr.begin(op, 0, root)
	defer rp.tr.end(r)
	id := rp.tr.begin(op, r, spanReadLog)
	_, _, entries, err := core.ReadLog(bytes.NewReader(payload))
	rp.tr.end(id)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := rp.solve(op, r, e, nil, 16); err != nil {
			return err
		}
	}
	id = rp.tr.begin(op, r, spanAppend)
	_, err = rp.store.Append(logstore.Record{
		Device: device, Signal: "sig", Epoch: int64(idx + 1),
		TraceCycleBase: int64(idx * frameEntries), Body: payload,
	})
	rp.tr.end(id)
	return err
}

// read replays one reader request: the store range scan, then for a
// replay, decode and count-only solve of every stored entry.
func (rp *replayer) read(op int, o fxRead) error {
	root := rootReplay
	if o.export {
		root = rootExport
	}
	r := rp.tr.begin(op, 0, root)
	defer rp.tr.end(r)
	id := rp.tr.begin(op, r, spanQuery)
	recs, err := rp.store.Query(logstore.Query{
		Device: fxDevice(o.dev), Signal: fxSignal,
		From: fxEpoch(o.start), To: fxEpoch(o.start + o.frames() - 1), Limit: o.frames() + 1,
	})
	rp.tr.end(id)
	if err != nil || o.export {
		return err
	}
	for _, rec := range recs {
		id := rp.tr.begin(op, r, spanReadLog)
		_, _, entries, err := core.ReadLog(bytes.NewReader(rec.Body))
		rp.tr.end(id)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := rp.solve(op, r, e, nil, 4096); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayOp is one seeded workload op, runnable on any replayer; id is
// the op id of the same op in the daemon phase.
type replayOp struct {
	id  int
	run func(rp *replayer) error
}

// ingestOps is the first n frames of both streams, round-robin.
func ingestOps(b *bench, n int) ([]replayOp, error) {
	var ops []replayOp
	gens := make([]*ingestStream, ingestStreams)
	for s := range gens {
		gens[s] = newIngestStream(b.enc, b.seed, s)
	}
	for i := 0; i < n; i++ {
		for s, g := range gens {
			f, err := g.frame()
			if err != nil {
				return nil, err
			}
			op := ingestOp(s, i)
			ops = append(ops, replayOp{op, func(rp *replayer) error {
				return rp.ingestFrame(op, rootFrame, ingestDevice(s), i, f.payload)
			}})
		}
	}
	return ops, nil
}

// postmortemOps is the first n debugger queries.
func postmortemOps(b *bench, n int) ([]replayOp, error) {
	var ops []replayOp
	gen := newPMGen(b.enc, b.seed, tagPostmortem)
	for i := 0; i < n; i++ {
		q, err := gen.query()
		if err != nil {
			return nil, err
		}
		ops = append(ops, replayOp{i, func(rp *replayer) error {
			cons, limit := []reconstruct.Constraint(nil), 16
			if q.windowed {
				cons, limit = rp.window, 1
			}
			r := rp.tr.begin(i, 0, rootQuery)
			defer rp.tr.end(r)
			return rp.solve(i, r, q.entry, cons, limit)
		}})
	}
	return ops, nil
}

// fxReadsPerWrite places the paced writer's frames among the reads: at
// ~200 reads/s and 20 frames/s, one frame per 10 reads.
const fxReadsPerWrite = 10

// forensicsOps is the first n reader requests with the writer's frames
// interleaved.
func forensicsOps(b *bench, n int) ([]replayOp, error) {
	var ops []replayOp
	gen := newFXReader(b.seed)
	for i := 0; i < n; i++ {
		if i%fxReadsPerWrite == 0 {
			j := i / fxReadsPerWrite
			f, err := fxFrame(b.enc, b.seed, -1, j)
			if err != nil {
				return nil, err
			}
			ops = append(ops, replayOp{fxWriterOp + j, func(rp *replayer) error {
				return rp.ingestFrame(fxWriterOp+j, rootWrite, fxLiveDevice, j, f.payload)
			}})
		}
		o := gen.read()
		ops = append(ops, replayOp{i, func(rp *replayer) error { return rp.read(i, o) }})
	}
	return ops, nil
}

// ladder times, on a dispatcher of its own (so the workload's route and
// solver counts stay exact), every layer call a workload's own ops may
// never make: 64 frames decoded and appended then scanned back as one
// export-sized range, k=3 and k=4 decodes, and windowed sat-inc
// queries, all at the workload's geometry. Per-layer metrics fall back
// to these spans only where the workload itself has none.
func (rp *replayer) ladder(b *bench) error {
	disp, err := reconstruct.NewDispatcher(rp.enc, reconstruct.DispatchOptions{Workers: 1})
	if err != nil {
		return err
	}
	lad := &replayer{tr: rp.tr, enc: rp.enc, disp: disp, reg: obs.NewRegistry(), store: rp.store,
		cache: newKeyLRU(resultCacheEntries), window: rp.window}
	r := newRNG(b.seed, tagLadder)
	op := ladderOp
	for i := 0; i < fxExportSpan; i++ {
		changes := make([][]int, frameEntries)
		for j := range changes {
			changes[j] = r.changes(j%4, rp.enc.M())
		}
		f, err := makeFrame(rp.enc, changes)
		if err != nil {
			return err
		}
		// Decode and append only: the ladder's frames are not solved.
		root := lad.tr.begin(op, 0, rootLadder)
		id := lad.tr.begin(op, root, spanReadLog)
		_, _, _, err = core.ReadLog(bytes.NewReader(f.payload))
		lad.tr.end(id)
		if err == nil {
			id = lad.tr.begin(op, root, spanAppend)
			_, err = lad.store.Append(logstore.Record{Device: "ladder", Signal: "sig", Epoch: int64(i),
				TraceCycleBase: int64(i * frameEntries), Body: f.payload})
			lad.tr.end(id)
		}
		lad.tr.end(root)
		if err != nil {
			return err
		}
		op--
	}
	root := lad.tr.begin(op, 0, rootLadderScan)
	id := lad.tr.begin(op, root, spanQuery)
	recs, err := lad.store.Query(logstore.Query{Device: "ladder", Signal: "sig", From: 0, To: fxExportSpan - 1})
	lad.tr.end(id)
	lad.tr.end(root)
	if err != nil {
		return err
	}
	if len(recs) != fxExportSpan {
		return fmt.Errorf("ladder: range scan returned %d records, want %d", len(recs), fxExportSpan)
	}
	op--
	m := rp.enc.M()
	for _, p := range []struct {
		k, hi, limit int
		cons         []reconstruct.Constraint
	}{
		{3, m, 16, nil}, {3, m, 16, nil}, {3, m, 16, nil}, {3, m, 16, nil}, {4, m, 16, nil}, {4, m, 16, nil},
		{5, pmWindowHi, 1, rp.window}, {6, pmWindowHi, 1, rp.window}, {7, pmWindowHi, 1, rp.window}, {8, pmWindowHi, 1, rp.window},
	} {
		e := core.Log(rp.enc, core.SignalFromChanges(m, r.changes(p.k, p.hi)...))
		root := lad.tr.begin(op, 0, rootLadder)
		err := lad.solve(op, root, e, p.cons, p.limit)
		lad.tr.end(root)
		if err != nil {
			return err
		}
		op--
	}
	return nil
}

// replayRun is one replayer's outcome.
type replayRun struct {
	ops    int
	opWall map[int]time.Duration
	solves int
	counts map[string]int64
}

func (rp *replayer) result(ops int) *replayRun {
	return &replayRun{ops: ops, opWall: rp.opWall, solves: rp.solves, counts: rp.reg.Snapshot().Counters}
}

// runReplays replays n ops of the workload on a traced and an untraced
// replayer in lockstep, both on the store at storeDir, then runs the
// ladder on the traced one. It returns both runs and the store's stats.
func runReplays(w *workload, b *bench, tr *tracer, storeDir string, n int) (traced, plain *replayRun, st logstore.Stats, err error) {
	ops, err := w.ops(b, n)
	if err != nil {
		return nil, nil, st, err
	}
	trp, err := newReplayer(tr, w.geom)
	if err != nil {
		return nil, nil, st, err
	}
	prp, err := newReplayer(nil, w.geom)
	if err != nil {
		return nil, nil, st, err
	}
	id := tr.begin(setUpOp, 0, spanOpen)
	store, _, err := logstore.Open(storeDir, logstore.Options{})
	tr.end(id)
	if err != nil {
		return nil, nil, st, err
	}
	trp.store, prp.store = store, store
	for i, op := range ops {
		pair := [2]*replayer{trp, prp}
		if i%2 == 1 {
			pair[0], pair[1] = prp, trp
		}
		for _, rp := range pair {
			t0 := time.Now()
			err = op.run(rp)
			rp.opWall[op.id] = time.Since(t0)
			if err != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = trp.ladder(b)
	}
	st = store.Stats()
	if err = errors.Join(err, store.Close()); err != nil {
		return nil, nil, st, err
	}
	return trp.result(len(ops)), prp.result(len(ops)), st, nil
}
