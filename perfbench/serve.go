package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"namer/internal/core"
	"namer/internal/serve"
	"namer/internal/session"
)

const (
	// latencyLimit is the scan latency the ramp holds the tail to.
	latencyLimit = 50 * time.Millisecond
	// The fixed-rate chunks last at least fixedShare of the budget and,
	// in the traced run, which reports their p95 and p99, measure at
	// least fixedScans scans in total. Those tails move too much from run
	// to run on a shared host to gate on: a stall of the host of a second
	// or two queues the open loop's requests behind it and decides the
	// tail.
	fixedScans = 1000
	fixedShare = 0.15
	// Each chunk then sends a sequence (see traffic.sequence) over one
	// connection, each request as soon as the previous answer is in,
	// with at least seqEdits edited-file scans. Its medians are the gated
	// scan and diff latencies. At the fixed rate the server idles between
	// requests, and how long the host takes to wake it varies from
	// minute to minute: on a shared 2-vCPU host the fixed-rate scan
	// median moved about three times as much between runs as the
	// sequential one measured in the same runs.
	seqEdits = 250
	// Request mix of the fixed-rate phase: shares of edited-file scans
	// (cache misses) and re-scans of recent unchanged files (cache hits);
	// the rest are /v1/diff patches.
	shareEdit   = 0.60
	shareRescan = 0.25
	// warmUp is discarded from the start of the fixed-rate phase.
	warmUp = time.Second
	// checkEvery samples one edited-file scan in checkEvery for the
	// response-equals-in-process-ScanFiles check.
	checkEvery = 20
	// Ramp: each step offers at least rampRequests scans over at least
	// rampMinSeconds, so a short stall cannot decide it. Rates change by
	// rampFactor per step, for at most rampSteps, until one step passes
	// and one fails; bisectSteps then narrow that bracket. A step passes
	// when its rampQuantile latency is within latencyLimit; a p95 of 300
	// samples has 15 beyond it.
	rampRequests   = 300
	rampMinSeconds = 1.5
	rampQuantile   = 0.95
	rampFactor     = 1.25
	rampSteps      = 12
	bisectSteps    = 2
	// Each chunk sends at least reloadsPerChunk sequential POST
	// /debug/reload calls, and more until reloadTime has passed: a
	// sub-millisecond reload needs many samples to average over the
	// server's GC cycles.
	reloadsPerChunk = 30
	reloadTime      = 500 * time.Millisecond
	// Editor sessions: sessionClients closed-loop clients send the
	// workload's changes range edits in total, each sent as soon as the
	// previous answer is in; every scanEvery-th action is a /v1/scan of
	// an unchanged file instead; a client starts a new session every
	// filesPerSession files, each receiving editsPerFile edits. The gated
	// change tail is the median, over windows of changeWindow consecutive
	// changes, of each window's p95 (10 samples beyond it): a host stall
	// raises the tail of the windows it falls in, a slower program raises
	// every window's tail.
	sessionClients  = 2
	changeWindow    = 200
	scanEvery       = 8
	filesPerSession = 8
	editsPerFile    = 4
	// After each chunk, extra namer-serve children are started on the
	// served knowledge and stopped again, at least startsPerChunk of them
	// and more until startShare/chunks of the budget has passed, for
	// serve_start_ms.
	startsPerChunk = 3
	startShare     = 0.03
)

const (
	kindScan = iota
	kindRescan
	kindDiff
)

// request is one precomputed HTTP request of the open loop.
type request struct {
	at    time.Duration // due offset from the start of the phase
	kind  int
	url   string
	body  []byte
	check *core.InputFile // non-nil: verify the response in-process
}

// outcome is one request's measured fate.
type outcome struct {
	kind     int
	latency  time.Duration // from due time to response
	lateness time.Duration // from due time to send
	status   int
	body     []byte // kept only for checked requests
}

// child is a running namer-serve process.
type child struct {
	cmd     *exec.Cmd
	base    string
	startup time.Duration
}

// startServer spawns namer-serve with default flags on the given
// knowledge and waits until /healthz answers 200; name tells the ready
// and log files of concurrent children apart.
func (r *run) startServer(name, knowledgePath string) (*child, error) {
	ready := filepath.Join(r.work, name+".ready")
	os.Remove(ready)
	logFile, err := os.Create(filepath.Join(r.work, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(filepath.Join(r.bin, "namer-serve"), "-addr", "127.0.0.1:0",
		"-knowledge", knowledgePath, "-ready-file", ready)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if c.base == "" {
			data, err := os.ReadFile(ready)
			if err != nil || !bytes.HasSuffix(data, []byte("\n")) {
				continue
			}
			c.base = "http://" + strings.TrimSpace(string(data))
		}
		resp, err := http.Get(c.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			c.startup = time.Since(start)
			return c, nil
		}
	}
	c.stop()
	return nil, fmt.Errorf("namer-serve did not become healthy within 60s (see %s)", logFile.Name())
}

// stop terminates the child and waits for it.
func (c *child) stop() *os.ProcessState {
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
	return c.cmd.ProcessState
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// post sends one request and returns its status and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// openLoop sends each request at its due offset over the given
// connections and returns one outcome per request, in request order.
// Each request is timed from its due time, so a stall also charges the
// requests queued behind it. With precise set, each request is sent on
// time to well under a millisecond (see waitUntil), at the cost of a
// little CPU per request; the ramp, whose rates would make that a whole
// CPU, sends at the runtime's timer granularity instead.
func openLoop(clients []*http.Client, reqs []*request, precise bool) []outcome {
	// Sized to the number of sends: the dispatcher never blocks.
	queue := make(chan int, len(reqs))
	out := make([]outcome, len(reqs))
	t0 := time.Now().Add(20 * time.Millisecond)
	done := make(chan struct{})
	for _, c := range clients {
		go func(c *http.Client) {
			for i := range queue {
				rq := reqs[i]
				due := t0.Add(rq.at)
				start := time.Now()
				status, body, err := post(c, rq.url, rq.body)
				if err != nil {
					status = 0
				}
				o := outcome{kind: rq.kind, latency: time.Since(due),
					lateness: start.Sub(due), status: status}
				if rq.check != nil {
					o.body = body
				}
				out[i] = o
			}
			done <- struct{}{}
		}(c)
	}
	for i, rq := range reqs {
		due := t0.Add(rq.at)
		if precise {
			waitUntil(due)
		} else if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	for range clients {
		<-done
	}
	return out
}

// sequential sends the requests one after another over one connection,
// each as soon as the previous answer is in, and times each from its
// send.
func sequential(c *http.Client, reqs []*request) []outcome {
	out := make([]outcome, len(reqs))
	for i, rq := range reqs {
		start := time.Now()
		status, body, err := post(c, rq.url, rq.body)
		if err != nil {
			status = 0
		}
		out[i] = outcome{kind: rq.kind, latency: time.Since(start), status: status}
		if rq.check != nil {
			out[i].body = body
		}
	}
	return out
}

// waitUntil returns at t. A sleeping Go process is woken at millisecond
// granularity, which alone would send the median request half a
// millisecond late and charge that to every latency, so the last
// millisecond before t is spent yielding in a loop instead.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// interarrival draws the gap to the next Poisson arrival at rate req/s.
func interarrival(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// traffic builds request sequences from the held-out files.
type traffic struct {
	w      workload
	ed     *editor
	rng    *rand.Rand
	files  []heldFile
	base   string
	recent [][]byte // bodies of recent edited-file scans
	nScans int
	// order and diffOrder are the files not yet drawn in the current pass
	// over all files and over the diff files.
	order, diffOrder []int
}

// pick draws held-out files in seeded passes over the whole set, so every
// seed exercises the same file-size mix and only the edits differ.
func (t *traffic) pick() heldFile {
	if len(t.order) == 0 {
		t.order = t.rng.Perm(len(t.files))
	}
	f := t.files[t.order[0]]
	t.order = t.order[1:]
	return f
}

// pickDiff draws the files of diff requests in seeded passes over every
// other held-out file.
func (t *traffic) pickDiff() heldFile {
	if len(t.diffOrder) == 0 {
		t.diffOrder = t.rng.Perm((len(t.files) + 1) / 2)
	}
	f := t.files[2*t.diffOrder[0]]
	t.diffOrder = t.diffOrder[1:]
	return f
}

func (t *traffic) scanBody(path, src string) []byte {
	body, _ := json.Marshal(serve.ScanRequest{Lang: t.w.lang.String(), Path: path, Source: src, All: t.w.all})
	return body
}

// edited returns a seeded single-identifier edit of a file from draw.
func (t *traffic) edited(draw func() heldFile) (heldFile, string) {
	for {
		f := draw()
		if out, _, ok := t.ed.rename(t.rng, f.source); ok {
			return f, out
		}
	}
}

// next draws one request of a mix with the given edit/rescan shares.
func (t *traffic) next(edit, rescan float64) *request {
	switch u := t.rng.Float64(); {
	case u >= edit+rescan:
		return t.request(kindDiff)
	case u >= edit:
		return t.request(kindRescan)
	}
	return t.request(kindScan)
}

// sequence starts fresh passes over the held-out files and returns, in
// seeded order, an edited-file scan of every file and a diff of every
// diff file, as many whole passes of both as give at least seqEdits
// scans, and re-scans in the mix's proportion to the edits. Every seed
// thus sends the same files, in a different order with different edits.
func (t *traffic) sequence() []*request {
	t.order, t.diffOrder, t.recent = nil, nil, nil
	passes := (seqEdits + len(t.files) - 1) / len(t.files)
	edits := passes * len(t.files)
	var kinds []int
	for i := 0; i < edits; i++ {
		kinds = append(kinds, kindScan)
	}
	for i := 0; i < passes*(len(t.files)+1)/2; i++ {
		kinds = append(kinds, kindDiff)
	}
	for i := 0; i < int(float64(edits)*shareRescan/shareEdit); i++ {
		kinds = append(kinds, kindRescan)
	}
	t.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]*request, len(kinds))
	for i, k := range kinds {
		reqs[i] = t.request(k)
	}
	return reqs
}

// request draws one request of the given kind. A re-scan is of an
// unchanged, recently scanned file; until there are a few of those, it
// is an edited-file scan instead.
func (t *traffic) request(kind int) *request {
	switch {
	case kind == kindRescan && len(t.recent) > 4:
		// Skip the last few, which may still be in flight.
		body := t.recent[t.rng.Intn(len(t.recent)-4)]
		return &request{kind: kindRescan, url: t.base + "/v1/scan", body: body}
	case kind == kindDiff:
		for {
			f, after := t.edited(t.pickDiff)
			if patch, ok := unifiedDiff(f.path, f.source, after); ok {
				body, _ := json.Marshal(serve.DiffRequest{Lang: t.w.lang.String(), All: t.w.all,
					Files: []serve.DiffFile{{Path: f.path, Before: f.source, Patch: patch}}})
				return &request{kind: kindDiff, url: t.base + "/v1/diff", body: body}
			}
		}
	}
	f, after := t.edited(t.pick)
	rq := &request{kind: kindScan, url: t.base + "/v1/scan", body: t.scanBody(f.path, after)}
	t.nScans++
	if t.nScans%checkEvery == 0 {
		rq.check = &core.InputFile{Repo: "request", Path: f.path, Source: after}
	}
	t.recent = append(t.recent, rq.body)
	if len(t.recent) > 16 {
		t.recent = t.recent[1:]
	}
	return rq
}

func (t *traffic) batch(n int, edit, rescan float64) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = t.next(edit, rescan)
	}
	return reqs
}

// serveStats is what the serve phases measured, for the traced run.
type serveStats struct {
	scanP50, scanP95, scanP99, changeP99 float64
	fixedScanP50, lateP99                float64
	sent                                 int
	metrics                              map[string]float64 // scraped from /metrics
	scripts                              []sessionScript
}

// runServe drives a namer-serve child. The fixed-rate open loop, the
// sequential reloads and the closed-loop editor sessions run in chunks,
// each followed by batch rounds; a traced run ends with the rate ramp.
func (r *run) runServe(w workload, in *inputs, b *batch) error {
	ref, err := referenceSystem(b.knowledge)
	if err != nil {
		return err
	}
	c, err := r.startServer("serve", b.knowledge)
	if err != nil {
		return err
	}
	logf("namer-serve healthy after %v", c.startup.Round(time.Millisecond))
	st, err := r.serveTraffic(w, in, b, c, ref)
	if err == nil {
		st.metrics, err = scrapeMetrics(c.base)
	}
	ps := c.stop()
	if err != nil {
		return err
	}
	r.op(ps.Success(), "namer-serve exit: %v", ps)
	r.report("serve_rss_mb", "MB", childPeakRSSMB(ps), 1)
	r.serve = st
	return nil
}

func (r *run) serveTraffic(w workload, in *inputs, b *batch, c *child, ref *core.System) (*serveStats, error) {
	clients := []*http.Client{newClient(), newClient()}
	t := &traffic{w: w, ed: newEditor(w.lang), rng: rand.New(rand.NewSource(r.seed + 1)),
		files: in.traffic, base: c.base}
	st := &serveStats{scripts: r.scripts(t, w.changes/editsPerFile)}
	var scans, fromSend, seqScans, diffs, late, rl, change, sessionScans, starts []float64
	perChunk := 0
	if r.traced {
		perChunk = (fixedScans + chunks - 1) / chunks
	}
	budget := time.Duration(fixedShare / chunks * r.seconds * float64(time.Second))
	for k := 0; k < chunks; k++ {
		// Fixed rate: Poisson arrivals until this chunk's share of
		// fixedShare of the budget has passed and, traced, its share of
		// fixedScans scans is measured. The first chunk starts with a
		// warm-up.
		warm := time.Duration(0)
		if k == 0 {
			warm = warmUp
		}
		// Leave the batch rounds' garbage behind, so this process's GC
		// does not compete with the server while latencies are taken.
		runtime.GC()
		var reqs []*request
		for at, measured := time.Duration(0), 0; measured < perChunk || at < budget; at += interarrival(t.rng, w.fixedRate) {
			rq := t.next(shareEdit, shareRescan)
			rq.at = at
			if at >= warm && rq.kind != kindDiff {
				measured++
			}
			reqs = append(reqs, rq)
		}
		outs := openLoop(clients, reqs, true)
		st.sent += len(outs)
		for i, o := range outs {
			r.op(o.status == http.StatusOK, "fixed-rate request %d: status %d", i, o.status)
			if reqs[i].at < warm {
				continue
			}
			late = append(late, ms(o.lateness))
			if o.kind != kindDiff {
				scans = append(scans, ms(o.latency))
				fromSend = append(fromSend, ms(o.latency-o.lateness))
			}
		}
		r.checkResponses(w, ref, reqs, outs)

		n := len(st.scripts)
		ch, sc := r.sessions(w, t, clients, c.base, st.scripts[k*n/chunks:(k+1)*n/chunks])
		change = append(change, ch...)
		sessionScans = append(sessionScans, sc...)

		reloadEnd := time.Now().Add(reloadTime)
		for i := 0; i < reloadsPerChunk || time.Now().Before(reloadEnd); i++ {
			var status int
			var err error
			d := timeIt(func() { status, _, err = post(clients[0], c.base+"/debug/reload", nil) })
			r.op(err == nil && status == http.StatusOK, "reload %d: status %d %v", i, status, err)
			rl = append(rl, ms(d))
		}

		// The reloads left an empty cache: the sequence's hits and misses
		// are the same for every seed.
		reqs = t.sequence()
		outs = sequential(clients[0], reqs)
		for i, o := range outs {
			r.op(o.status == http.StatusOK, "sequential request %d: status %d", i, o.status)
			if o.kind == kindDiff {
				diffs = append(diffs, ms(o.latency))
			} else {
				seqScans = append(seqScans, ms(o.latency))
			}
		}
		r.checkResponses(w, ref, reqs, outs)

		starts = append(starts, r.serverStarts(b.knowledge)...)
		r.loads(b)
		if err := r.rounds(b); err != nil {
			return nil, err
		}
	}
	st.scanP50 = median(seqScans)
	st.fixedScanP50 = median(scans)
	st.lateP99 = quantile(late, tailQuantile(len(late), 0.99))
	st.scanP95 = quantile(scans, 0.95)
	st.scanP99 = quantile(scans, tailQuantile(len(scans), 0.99))
	st.changeP99 = quantile(change, tailQuantile(len(change), 0.99))
	logf("tails: scan p95 %.3f ms, p99 %.3f ms (n=%d); change p95 %.3f ms, p99 %.3f ms (n=%d)",
		st.scanP95, st.scanP99, len(scans), quantile(change, 0.95), st.changeP99, len(change))
	r.report("scan_p50_ms", "ms", median(seqScans), len(seqScans))
	r.report("diff_p50_ms", "ms", median(diffs), len(diffs))
	logf("fixed rate %.0f req/s: %d sent, lateness p50 %.3f ms, p99 %.3f ms; scan p50 %.3f ms from due time, %.3f ms from send (n=%d)",
		w.fixedRate, st.sent, median(late), st.lateP99, median(scans), median(fromSend), len(scans))
	logf("reload quartiles %.2f / %.2f / %.2f ms", quantile(rl, 0.25), median(rl), quantile(rl, 0.75))
	r.report("reload_ms", "ms", median(rl), len(rl))
	r.report("change_p50_ms", "ms", median(change), len(change))
	changeP95, windows := windowedQuantile(change, changeWindow, 0.95)
	r.report("change_p95_ms", "ms", changeP95, len(change))
	logf("change_p95_ms is the median p95 of %d windows of %d consecutive changes", windows, changeWindow)
	r.report("serve_start_ms", "ms", median(starts), len(starts))
	logf("session scans (unchanged files): p50 %.3f ms (n=%d)", median(sessionScans), len(sessionScans))

	// The ramp is part of the traced run only: on a shared 2-CPU host its
	// knee moves too much from run to run to gate on.
	if r.traced {
		maxRPS := r.ramp(t, clients, w.rampStart)
		r.check(maxRPS > 0, "no ramp rate from %.0f req/s down met the %v limit", w.rampStart, latencyLimit)
		logf("scan max rate %.1f req/s", maxRPS)
		r.layer("serve.max_rps", "req/s", maxRPS)
	}
	return st, nil
}

// ramp offers scans (in the fixed phase's edit:rescan proportion) at
// changing rates until one step meets and one misses the latency limit,
// narrows that bracket by bisection, and returns the highest rate at
// which the tail stays within the limit with every request answered:
// linearly interpolated on the tail latency between the last passing and
// the first failing rate. Latency runs from the due time, so it includes the
// generator's lateness; a growing backlog fails the step.
func (r *run) ramp(t *traffic, clients []*http.Client, start float64) float64 {
	limit := ms(latencyLimit)
	// try runs one rate once and reports its tail latency and whether
	// every request was answered 200.
	try := func(rate float64) (float64, bool) {
		n := max(rampRequests, int(rate*rampMinSeconds))
		reqs := t.batch(n, shareEdit/(shareEdit+shareRescan), 1)
		var at time.Duration
		for _, rq := range reqs {
			rq.at = at
			at += interarrival(t.rng, rate)
		}
		outs := openLoop(clients, reqs, false)
		var lat, lateness []float64
		ok := true
		r.attempted += len(outs)
		for _, o := range outs {
			ok = ok && o.status == http.StatusOK
			lat = append(lat, ms(o.latency))
			lateness = append(lateness, ms(o.lateness))
		}
		tail := quantile(lat, rampQuantile)
		logf("ramp %.0f req/s: %d scans, p%.0f %.2f ms, lateness %.2f ms, all ok %t",
			rate, len(lat), 100*rampQuantile, tail, quantile(lateness, rampQuantile), ok)
		return tail, ok
	}
	// step retries a rate that misses the limit once, so one transient
	// stall of the host does not end the ramp.
	step := func(rate float64) (float64, bool) {
		tail, ok := try(rate)
		if ok && tail > limit {
			again, ok2 := try(rate)
			tail, ok = math.Min(tail, again), ok2
		}
		return tail, ok
	}
	// Walk up from the start rate until a step fails, or down until one
	// passes, to bracket the limit.
	lo, loLat := 0.0, 0.0
	hi, hiLat, hiOK := 0.0, 0.0, false
	rate := start
	for i := 0; i < rampSteps && (lo == 0 || hi == 0); i++ {
		tail, ok := step(rate)
		if ok && tail <= limit {
			lo, loLat = rate, tail
			rate *= rampFactor
		} else {
			hi, hiLat, hiOK = rate, tail, ok
			rate /= rampFactor
		}
	}
	if lo == 0 || hi == 0 {
		return lo
	}
	for i := 0; i < bisectSteps; i++ {
		mid := math.Sqrt(lo * hi)
		tail, ok := step(mid)
		if !ok || tail > limit {
			hi, hiLat, hiOK = mid, tail, ok
		} else {
			lo, loLat = mid, tail
		}
	}
	if !hiOK {
		return lo
	}
	return lo + (hi-lo)*(limit-loLat)/(hiLat-loLat)
}

// checkResponses compares the sampled scan responses with an in-process
// ScanFiles of the same content, rendered the way the server renders it.
func (r *run) checkResponses(w workload, ref *core.System, reqs []*request, outs []outcome) {
	for i, o := range outs {
		f := reqs[i].check
		if f == nil || o.status != http.StatusOK {
			continue
		}
		var got serve.ScanResponse
		err := json.Unmarshal(o.body, &got)
		res := ref.ScanFiles([]*core.InputFile{f})
		want := []serve.ScanViolation{}
		for _, v := range res.Violations {
			classified := ref.ClassifyIn(res.Stats, v)
			if !classified && !w.all {
				continue
			}
			sv := serve.ScanViolation{Path: v.Stmt.Path, Line: v.Stmt.Line, SourceLine: v.Stmt.SourceLine,
				Original: v.Detail.Original, Suggested: v.Detail.Suggested,
				PatternType: v.Pattern.Type.String(), Classified: classified}
			if from, to, ok := v.SuggestFixedName(); ok {
				sv.Fix = from + " -> " + to
			}
			want = append(want, sv)
		}
		r.check(err == nil && reflect.DeepEqual(got.Violations, want),
			"scan of %s: server returned %d violations, in-process ScanFiles %d", f.Path, len(got.Violations), len(want))
	}
}

// sessionScript is one file's precomputed edit sequence.
type sessionScript struct {
	path     string
	original string
	edits    []session.Edit
	contents []string // content after each edit
}

// scripts precomputes n session edit scripts of up to editsPerFile
// edits each, over held-out files drawn in passes: renames, line
// duplications, and deletions of a duplicated line.
func (r *run) scripts(t *traffic, n int) []sessionScript {
	var out []sessionScript
	for len(out) < n {
		f := t.pick()
		s := sessionScript{path: f.path, original: f.source}
		cur, inserted := f.source, -1
		for len(s.edits) < editsPerFile {
			var next string
			var ed session.Edit
			ok := true
			switch u := t.rng.Float64(); {
			case inserted >= 0 && u < 0.3:
				next, ed = deleteLine(cur, inserted)
				inserted = -1
			case u < 0.65:
				next, ed, ok = t.ed.rename(t.rng, cur)
			default:
				if inserted >= 0 {
					continue
				}
				next, ed, inserted, ok = t.ed.insertLine(t.rng, cur)
				if !ok {
					inserted = -1
				}
			}
			if !ok {
				break
			}
			s.edits = append(s.edits, ed)
			s.contents = append(s.contents, next)
			cur = next
		}
		if len(s.edits) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// sessions runs the closed-loop editor clients over the given scripts,
// split between them, and returns the range-edit change latencies, in
// the order the changes were sent, and the unchanged-file scan
// latencies. Every change response's content hash must equal the hash of
// the benchmark's own application of the edits.
func (r *run) sessions(w workload, t *traffic, clients []*http.Client, base string, all []sessionScript) (change, scan []float64) {
	perClient := len(all) / sessionClients
	type sent struct {
		at      time.Time
		latency float64
	}
	type clientOut struct {
		change []sent
		scan   []float64
		ops    []string // failed op descriptions, "" for success
	}
	results := make([]clientOut, sessionClients)
	done := make(chan struct{})
	for ci := 0; ci < sessionClients; ci++ {
		go func(ci int) {
			defer func() { done <- struct{}{} }()
			c, out := clients[ci], &results[ci]
			fail := func(format string, args ...any) { out.ops = append(out.ops, fmt.Sprintf(format, args...)) }
			var id string
			actions := 0
			for fi, s := range all[ci*perClient : (ci+1)*perClient] {
				if fi%filesPerSession == 0 {
					if id != "" {
						closeSession(c, base, id)
					}
					var err error
					if id, err = openSession(c, base); err != nil {
						fail("open session: %v", err)
						return
					}
				}
				url := base + "/v1/session/" + id + "/change"
				send := func(ed session.Edit, want string) (time.Time, time.Duration, bool) {
					body, _ := json.Marshal(serve.SessionChangeRequest{Lang: w.lang.String(),
						Path: s.path, Edits: []session.Edit{ed}, All: w.all})
					start := time.Now()
					status, data, err := post(c, url, body)
					d := time.Since(start)
					var resp serve.SessionChangeResponse
					if err == nil {
						err = json.Unmarshal(data, &resp)
					}
					sum := sha256.Sum256([]byte(want))
					ok := err == nil && status == http.StatusOK && resp.Scan != "failed" &&
						resp.ContentHash == hex.EncodeToString(sum[:])
					if !ok {
						fail("change %s: status %d scan %q err %v hash match %t",
							s.path, status, resp.Scan, err, resp.ContentHash == hex.EncodeToString(sum[:]))
					} else {
						out.ops = append(out.ops, "")
					}
					return start, d, ok
				}
				send(session.Edit{Text: s.original}, s.original)
				for ei, ed := range s.edits {
					actions++
					if actions%scanEvery == 0 {
						start := time.Now()
						status, _, err := post(c, base+"/v1/scan", t.scanBody(s.path, s.original))
						out.scan = append(out.scan, ms(time.Since(start)))
						if err != nil || status != http.StatusOK {
							fail("session scan %s: status %d %v", s.path, status, err)
						} else {
							out.ops = append(out.ops, "")
						}
					}
					if at, d, ok := send(ed, s.contents[ei]); ok {
						out.change = append(out.change, sent{at, ms(d)})
					}
				}
			}
			if id != "" {
				closeSession(c, base, id)
			}
		}(ci)
	}
	for range results {
		<-done
	}
	var changes []sent
	for _, res := range results {
		changes = append(changes, res.change...)
		scan = append(scan, res.scan...)
		for _, f := range res.ops {
			r.check(f == "", "%s", f)
		}
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i].at.Before(changes[j].at) })
	for _, c := range changes {
		change = append(change, c.latency)
	}
	return change, scan
}

func openSession(c *http.Client, base string) (string, error) {
	body, _ := json.Marshal(serve.SessionRequest{Op: "open"})
	status, data, err := post(c, base+"/v1/session", body)
	if err != nil {
		return "", err
	}
	var resp serve.SessionResponse
	if err := json.Unmarshal(data, &resp); err != nil || status != http.StatusOK || resp.SessionID == "" {
		return "", fmt.Errorf("status %d: %s", status, data)
	}
	return resp.SessionID, nil
}

func closeSession(c *http.Client, base, id string) {
	body, _ := json.Marshal(serve.SessionRequest{Op: "close", SessionID: id})
	post(c, base+"/v1/session", body)
}

// serverStarts times start-ups of extra namer-serve children on the
// served knowledge, from spawning each until its /healthz answers 200,
// for one chunk's share of the budget. Each child is stopped and must
// exit cleanly before the next starts.
func (r *run) serverStarts(knowledgePath string) []float64 {
	var out []float64
	deadline := time.Now().Add(time.Duration(startShare / chunks * r.seconds * float64(time.Second)))
	for i := 0; i < startsPerChunk || time.Now().Before(deadline); i++ {
		c, err := r.startServer("start", knowledgePath)
		r.op(err == nil, "extra namer-serve start: %v", err)
		if err != nil {
			continue
		}
		out = append(out, ms(c.startup))
		ps := c.stop()
		r.op(ps.Success(), "extra namer-serve exit: %v", ps)
	}
	return out
}

// scrapeMetrics reads the unlabeled series of the server's /metrics page.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
