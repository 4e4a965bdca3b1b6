package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/logstore"
	"repro/internal/reconstruct"
	"repro/internal/service"
)

// sample is one timed primary op, keyed by its op id so the traced
// replay can pair it with the same op's layer spans; done orders ops by
// completion for the windowed tail.
type sample struct {
	op   int
	ms   float64
	done time.Time
}

// runResult is what one generator goroutine measured.
type runResult struct {
	attempted, failed, wrong int
	problems                 []string
	primary                  []sample
	export, write, lag       []float64
	ops, tc                  int
	// elapsed runs from the start of the window until the last op that
	// was sent inside it completed.
	elapsed time.Duration
}

// fail counts a failed op; wrong marks a failed answer check rather
// than a refused or errored request.
func (r *runResult) fail(wrong bool, format string, args ...any) {
	r.failed++
	if wrong {
		r.wrong++
	}
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) merge(o *runResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong += o.wrong
	r.problems = append(r.problems, o.problems...)
	r.primary = append(r.primary, o.primary...)
	r.export = append(r.export, o.export...)
	r.write = append(r.write, o.write...)
	r.lag = append(r.lag, o.lag...)
	r.ops += o.ops
	r.tc += o.tc
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// bench is one run's fixed inputs.
type bench struct {
	seed uint64
	enc  *encoding.Encoding
	// digests[dev][idx] is the digest of every preloaded forensics body,
	// for the byte-identity check.
	digests [][][sha256.Size]byte
}

// checkEntries verifies a frame reply's per-entry results: trace-cycle
// numbering from base, the echoed TP and k, at least one candidate
// (the logged signal itself is one), and the logged signal among the
// candidates whenever the enumeration was exhaustive.
func checkEntries(f frame, base int, results []service.StreamEntryResult) string {
	if len(results) != len(f.entries) {
		return fmt.Sprintf("%d results for %d entries", len(results), len(f.entries))
	}
	for i, r := range results {
		e := f.entries[i]
		switch {
		case r.TraceCycle != base+i:
			return fmt.Sprintf("entry %d: trace_cycle %d, want %d", i, r.TraceCycle, base+i)
		case r.K != e.K || r.TP != e.TP.String():
			return fmt.Sprintf("entry %d: echoed (tp %s, k %d), sent (tp %s, k %d)", i, r.TP, r.K, e.TP, e.K)
		case r.Count < 1:
			return fmt.Sprintf("entry %d: no candidate, but the logged signal is one", i)
		case r.Exhausted && !containsChanges(r.Changes, f.changes[i]):
			return fmt.Sprintf("entry %d: exhaustive answer misses the logged signal %v", i, f.changes[i])
		}
	}
	return ""
}

// frameProblem checks one stream frame reply. refused marks a per-frame
// error the server reported; otherwise problem names a wrong answer, if
// any.
func frameProblem(f frame, base int, msg service.StreamMsg) (refused bool, problem string) {
	if msg.Status != 0 || msg.State != "" {
		return true, fmt.Sprintf("status %d %s %s", msg.Status, msg.State, msg.Error)
	}
	if msg.TraceCycleBase != base {
		return false, fmt.Sprintf("trace_cycle_base %d, want %d", msg.TraceCycleBase, base)
	}
	return false, checkEntries(f, base, msg.Results)
}

func containsChanges(cands [][]int, want []int) bool {
	for _, c := range cands {
		if slices.Equal(c, want) {
			return true
		}
	}
	return false
}

// warmFrame is a frame with every k in 0..3, so a warm-up pays each
// lazy set-up (decoder pair index included) before timing starts.
func warmFrame(enc *encoding.Encoding, seed uint64) (frame, error) {
	r := newRNG(seed, tagWarm)
	changes := make([][]int, frameEntries)
	for i := range changes {
		changes[i] = r.changes(i%4, enc.M())
	}
	return makeFrame(enc, changes)
}

// streamOnce sends frames over one fresh stream connection and checks
// every reply.
func streamOnce(addr, device string, g geometry, frames ...frame) error {
	sc, err := service.DialStream(addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer sc.Close()
	ack, err := sc.Hello(service.StreamHello{Device: device, Signal: "sig", Encoding: g.spec()})
	if err != nil {
		return err
	}
	base := ack.NextTraceCycle
	for _, f := range frames {
		msg, err := sc.SendFrame(f.payload)
		if err != nil {
			return err
		}
		if _, p := frameProblem(f, base, msg); p != "" {
			return fmt.Errorf("warm-up frame: %s", p)
		}
		base += len(f.entries)
	}
	_, err = sc.End()
	return err
}

// --- ingest -----------------------------------------------------------

const ingestStreams = 2

func ingestDevice(s int) string { return fmt.Sprintf("fleet-%02d", s) }

func warmIngest(b *bench, _ *client, d *daemon) error {
	f, err := warmFrame(b.enc, b.seed)
	if err != nil {
		return err
	}
	return streamOnce(d.streamAddr, "warm-00", geomPaper, f)
}

// driveIngest runs two closed-loop stream connections until the
// deadline; an op is one 32-entry frame.
func driveIngest(b *bench, _ *client, d *daemon, dur time.Duration) (*runResult, error) {
	start := time.Now()
	deadline := start.Add(dur)
	results := make([]*runResult, ingestStreams)
	errs := make([]error, ingestStreams)
	var wg sync.WaitGroup
	for s := 0; s < ingestStreams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], errs[s] = ingestConn(b, s, d.streamAddr, deadline)
		}(s)
	}
	wg.Wait()
	total := &runResult{elapsed: time.Since(start)}
	for s := range results {
		if errs[s] != nil {
			return nil, fmt.Errorf("stream %d: %w", s, errs[s])
		}
		total.merge(results[s])
	}
	return total, nil
}

func ingestOp(stream, frame int) int { return stream*1_000_000 + frame }

func ingestConn(b *bench, s int, addr string, deadline time.Time) (*runResult, error) {
	gen := newIngestStream(b.enc, b.seed, s)
	sc, err := service.DialStream(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	ack, err := sc.Hello(service.StreamHello{Device: ingestDevice(s), Signal: "sig", Encoding: geomPaper.spec()})
	if err != nil {
		return nil, err
	}
	base := ack.NextTraceCycle
	res := &runResult{}
	last := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		f, err := gen.frame()
		if err != nil {
			return nil, err
		}
		sent := time.Now()
		res.lag = append(res.lag, ms(sent.Sub(last)))
		msg, err := sc.SendFrame(f.payload)
		last = time.Now()
		if err != nil {
			return nil, err
		}
		res.attempted++
		refused, p := frameProblem(f, base, msg)
		if refused {
			res.fail(false, "stream %d frame %d: %s", s, i, p)
			continue
		}
		res.primary = append(res.primary, sample{ingestOp(s, i), ms(last.Sub(sent)), last})
		if p != "" {
			res.fail(true, "stream %d frame %d: %s", s, i, p)
		}
		base += len(f.entries)
		res.ops++
		res.tc += len(msg.Results)
	}
	_, err = sc.End()
	return res, err
}

// --- postmortem -------------------------------------------------------

type jobReply struct {
	Results []service.StreamEntryResult `json:"results"`
}

// checkQuery verifies a postmortem answer: every candidate re-logs to
// the queried TP with exactly k changes and lies inside the window
// where one applies; the planted signal guarantees one candidate, and
// an exhaustive answer must contain it.
func checkQuery(enc *encoding.Encoding, q pmQuery, results []service.StreamEntryResult) string {
	if len(results) != 1 {
		return fmt.Sprintf("%d results, want 1", len(results))
	}
	r := results[0]
	if r.K != q.entry.K || r.TP != q.entry.TP.String() {
		return fmt.Sprintf("echoed (tp %s, k %d), sent (tp %s, k %d)", r.TP, r.K, q.entry.TP, q.entry.K)
	}
	if r.Count < 1 || r.Count != len(r.Changes) {
		return fmt.Sprintf("count %d with %d candidates", r.Count, len(r.Changes))
	}
	for _, c := range r.Changes {
		if len(c) != q.entry.K {
			return fmt.Sprintf("candidate %v has %d changes, want %d", c, len(c), q.entry.K)
		}
		for i, x := range c {
			if x < 0 || x >= enc.M() || (i > 0 && x <= c[i-1]) || (q.windowed && x >= pmWindowHi) {
				return fmt.Sprintf("candidate %v is not a sorted change set inside the query's range", c)
			}
		}
		if got := core.Log(enc, core.SignalFromChanges(enc.M(), c...)); !got.Equal(q.entry) {
			return fmt.Sprintf("candidate %v logs to (tp %s, k %d)", c, got.TP, got.K)
		}
	}
	if r.Exhausted && !containsChanges(r.Changes, q.changes) {
		return fmt.Sprintf("exhaustive answer misses the planted signal %v", q.changes)
	}
	return ""
}

// warmPostmortem sends one k=3 query and one windowed query from a
// separate stream, so the decoder's pair index and the sat-inc session
// are built before timing starts.
func warmPostmortem(b *bench, c *client, _ *daemon) error {
	gen := newPMGen(b.enc, b.seed, tagWarm)
	for _, k := range []int{3, 0} {
		q, err := gen.build(k)
		if err != nil {
			return err
		}
		code, data, err := c.do(http.MethodPost, "/v1/reconstruct", q.body)
		if err != nil {
			return err
		}
		var rep jobReply
		if err := decodeJSON(code, data, &rep); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
		if p := checkQuery(b.enc, q, rep.Results); p != "" {
			return fmt.Errorf("warm-up query: %s", p)
		}
	}
	return nil
}

// drivePostmortem is one closed-loop debugger issuing distinct queries.
func drivePostmortem(b *bench, c *client, _ *daemon, dur time.Duration) (*runResult, error) {
	gen := newPMGen(b.enc, b.seed, tagPostmortem)
	res := &runResult{}
	start := time.Now()
	deadline := start.Add(dur)
	last := start
	for i := 0; time.Now().Before(deadline); i++ {
		q, err := gen.query()
		if err != nil {
			return nil, err
		}
		sent := time.Now()
		res.lag = append(res.lag, ms(sent.Sub(last)))
		code, data, err := c.do(http.MethodPost, "/v1/reconstruct", q.body)
		last = time.Now()
		if err != nil {
			return nil, err
		}
		res.attempted++
		if code != http.StatusOK {
			res.fail(false, "query %d: status %d %s", i, code, strings.TrimSpace(string(data)))
			continue
		}
		res.primary = append(res.primary, sample{i, ms(last.Sub(sent)), last})
		var rep jobReply
		if err := decodeJSON(code, data, &rep); err != nil {
			res.fail(true, "query %d: %v", i, err)
		} else if p := checkQuery(b.enc, q, rep.Results); p != "" {
			res.fail(true, "query %d (k=%d windowed=%t): %s", i, q.entry.K, q.windowed, p)
		}
		res.ops++
		res.tc++
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// --- forensics --------------------------------------------------------

// preloadStore fills the forensics store through logstore.Append before
// the daemon starts, interleaving the devices like a fleet would, and
// records each body's digest for the export check.
func preloadStore(b *bench, dir string) error {
	st, _, err := logstore.Open(dir, logstore.Options{})
	if err != nil {
		return err
	}
	b.digests = make([][][sha256.Size]byte, fxDevices)
	for dev := range b.digests {
		b.digests[dev] = make([][sha256.Size]byte, fxPerDev)
	}
	for idx := 0; idx < fxPerDev; idx++ {
		for dev := 0; dev < fxDevices; dev++ {
			f, err := fxFrame(b.enc, b.seed, dev, idx)
			if err != nil {
				st.Close()
				return err
			}
			if _, err := st.Append(logstore.Record{
				Device: fxDevice(dev), Signal: fxSignal, Epoch: fxEpoch(idx),
				TraceCycleBase: int64(idx * frameEntries), Body: f.payload,
			}); err != nil {
				st.Close()
				return err
			}
			b.digests[dev][idx] = sha256.Sum256(f.payload)
		}
	}
	return st.Close()
}

type logsReply struct {
	Records []struct {
		EpochUS        int64  `json:"epoch_us"`
		TraceCycleBase int64  `json:"trace_cycle_base"`
		Body           []byte `json:"body"`
	} `json:"records"`
}

type queryReply struct {
	Records []struct {
		EpochUS        int64                       `json:"epoch_us"`
		TraceCycleBase int64                       `json:"trace_cycle_base"`
		Results        []service.StreamEntryResult `json:"results"`
	} `json:"records"`
}

// replayCounts is one replay answer kept for the check after the
// timed window, which compares it with an in-process Dispatcher.
type replayCounts struct {
	read   fxRead
	counts [][]int
}

// fxRun carries the forensics reader's answers to the post-run check.
type fxRun struct {
	*runResult
	replays []replayCounts
}

// readOnce sends one reader request and checks what can be checked
// without solving: record framing, epochs, and byte-identical bodies.
// A problem with a 200 reply is a wrong answer; with another status,
// a refused or failed request.
func readOnce(b *bench, c *client, o fxRead) (latency time.Duration, code int, rc *replayCounts, problem string, err error) {
	var data []byte
	sent := time.Now()
	if o.export {
		code, data, err = c.do(http.MethodGet, o.path(), nil)
	} else {
		var body []byte
		if body, err = o.body(); err == nil {
			code, data, err = c.do(http.MethodPost, "/v1/query", body)
		}
	}
	latency = time.Since(sent)
	if err != nil {
		return 0, 0, nil, "", err
	}
	if code != http.StatusOK {
		return latency, code, nil, fmt.Sprintf("status %d %s", code, strings.TrimSpace(string(data))), nil
	}
	if o.export {
		var rep logsReply
		if err := decodeJSON(code, data, &rep); err != nil {
			return latency, code, nil, err.Error(), nil
		}
		if len(rep.Records) != fxExportSpan {
			return latency, code, nil, fmt.Sprintf("export returned %d records, want %d", len(rep.Records), fxExportSpan), nil
		}
		for j, rec := range rep.Records {
			idx := o.start + j
			if rec.EpochUS != fxEpoch(idx) || rec.TraceCycleBase != int64(idx*frameEntries) ||
				sha256.Sum256(rec.Body) != b.digests[o.dev][idx] {
				return latency, code, nil, fmt.Sprintf("export record %d of %s differs from the preloaded frame %d", j, fxDevice(o.dev), idx), nil
			}
		}
		return latency, code, nil, "", nil
	}
	var rep queryReply
	if err := decodeJSON(code, data, &rep); err != nil {
		return latency, code, nil, err.Error(), nil
	}
	if len(rep.Records) != fxReplaySpan {
		return latency, code, nil, fmt.Sprintf("replay returned %d records, want %d", len(rep.Records), fxReplaySpan), nil
	}
	rc = &replayCounts{read: o}
	for j, rec := range rep.Records {
		idx := o.start + j
		if rec.EpochUS != fxEpoch(idx) || len(rec.Results) != frameEntries {
			return latency, code, nil, fmt.Sprintf("replay record %d: epoch %d with %d results", j, rec.EpochUS, len(rec.Results)), nil
		}
		counts := make([]int, len(rec.Results))
		for i, r := range rec.Results {
			if r.TraceCycle != idx*frameEntries+i {
				return latency, code, nil, fmt.Sprintf("replay record %d entry %d: trace_cycle %d", j, i, r.TraceCycle), nil
			}
			counts[i] = r.Count
		}
		rc.counts = append(rc.counts, counts)
	}
	return latency, code, rc, "", nil
}

func warmForensics(b *bench, c *client, _ *daemon) error {
	for _, o := range []fxRead{{export: true}, {export: false}} {
		_, _, _, problem, err := readOnce(b, c, o)
		if err != nil {
			return err
		}
		if problem != "" {
			return fmt.Errorf("warm-up read: %s", problem)
		}
	}
	return nil
}

const fxWriterOp = 1_000_000

// driveForensics runs the closed-loop reader beside the paced writer.
func driveForensics(b *bench, c *client, d *daemon, dur time.Duration) (*runResult, error) {
	start := time.Now()
	deadline := start.Add(dur)
	var wres *runResult
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wres, werr = pacedWriter(b, d.streamAddr, start, deadline)
	}()
	run := &fxRun{runResult: &runResult{}}
	gen := newFXReader(b.seed)
	last := time.Now()
	var rerr error
	for i := 0; time.Now().Before(deadline); i++ {
		o := gen.read()
		run.lag = append(run.lag, ms(time.Since(last)))
		latency, code, rc, problem, err := readOnce(b, c, o)
		last = time.Now()
		if err != nil {
			rerr = err
			break
		}
		run.attempted++
		if problem != "" {
			run.fail(code == http.StatusOK, "read %d (export=%t): %s", i, o.export, problem)
			continue
		}
		if o.export {
			run.export = append(run.export, ms(latency))
		} else {
			run.primary = append(run.primary, sample{i, ms(latency), last})
			run.replays = append(run.replays, *rc)
		}
		run.ops++
		run.tc += o.frames() * frameEntries
	}
	run.elapsed = time.Since(start)
	wg.Wait()
	if rerr != nil {
		return nil, rerr
	}
	if werr != nil {
		return nil, fmt.Errorf("paced writer: %w", werr)
	}
	if err := checkReplays(b, run); err != nil {
		return nil, err
	}
	// The writer's frames count as attempted and failed, but they are
	// not reads, so ops and tc stay the reader's. Its lag replaces the
	// reader's: client.lag_ms reports how late the paced writer ran.
	run.attempted += wres.attempted
	run.failed += wres.failed
	run.wrong += wres.wrong
	run.problems = append(run.problems, wres.problems...)
	run.write, run.lag = wres.write, wres.lag
	return run.runResult, nil
}

// pacedWriter streams fxWriterHz frames per second to the live key,
// timing each frame from when it was due.
func pacedWriter(b *bench, addr string, start, deadline time.Time) (*runResult, error) {
	sc, err := service.DialStream(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	ack, err := sc.Hello(service.StreamHello{Device: fxLiveDevice, Signal: fxSignal, Encoding: geomStore.spec()})
	if err != nil {
		return nil, err
	}
	base := ack.NextTraceCycle
	res := &runResult{}
	period := time.Second / fxWriterHz
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * period)
		if !due.Before(deadline) {
			break
		}
		f, err := fxFrame(b.enc, b.seed, -1, j)
		if err != nil {
			return nil, err
		}
		time.Sleep(time.Until(due))
		res.lag = append(res.lag, ms(time.Since(due)))
		msg, err := sc.SendFrame(f.payload)
		if err != nil {
			return nil, err
		}
		res.attempted++
		refused, p := frameProblem(f, base, msg)
		if refused {
			res.fail(false, "writer frame %d: %s", j, p)
			continue
		}
		res.write = append(res.write, ms(time.Since(due)))
		if p != "" {
			res.fail(true, "writer frame %d: %s", j, p)
		}
		base += len(f.entries)
	}
	_, err = sc.End()
	return res, err
}

// checkReplays compares every replayed count with an in-process
// Dispatcher count of the same regenerated entries, after the timed
// window so the check takes no CPU from the daemon while it is timed.
func checkReplays(b *bench, run *fxRun) error {
	disp, err := reconstruct.NewDispatcher(b.enc, reconstruct.DispatchOptions{Workers: 1})
	if err != nil {
		return err
	}
	memo := map[string]int{}
replays:
	for _, rc := range run.replays {
		for j, counts := range rc.counts {
			f, err := fxFrame(b.enc, b.seed, rc.read.dev, rc.read.start+j)
			if err != nil {
				return err
			}
			for i, e := range f.entries {
				key := fmt.Sprintf("%s/%d", e.TP.Key(), e.K)
				want, ok := memo[key]
				if !ok {
					if want, _, err = disp.Count(context.Background(), e, nil, 4096); err != nil {
						return err
					}
					memo[key] = want
				}
				if counts[i] != want {
					run.fail(true, "replay of %s frame %d entry %d: count %d, in-process count %d",
						fxDevice(rc.read.dev), rc.read.start+j, i, counts[i], want)
					continue replays
				}
			}
		}
	}
	return nil
}
