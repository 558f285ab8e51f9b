package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"simprof/internal/obs"
	"simprof/internal/phase"
	"simprof/internal/server"
)

// conns is the load generator's connection budget: one per vCPU of the
// 2-vCPU box the benchmark is sized for.
const conns = 2

// serveWorkload drives a real simprofd child with gob uploads of the
// Table I traces: an open loop at a fixed rate, then a closed loop of
// conns clients that measures saturation throughput.
type serveWorkload struct {
	uploads  []input
	preseed  int     // history records written before the service starts
	hotKeys  int     // size of the hot set; 0 makes every request unique
	openRate float64 // open-loop requests per second
	// openShare is the part of the measured time given to the open loop;
	// the closed loop, which only needs a throughput, gets the rest.
	openShare float64
	n         int // simulation points per profile
	warmups   int // requests per set-up
	replays   int // traced: uploads replayed through the pipeline in process
}

// key identifies one profile computation: which upload, which seed.
type key struct {
	trace int
	seed  uint64
}

// served is one request and what came back.
type served struct {
	key    key
	hot    bool
	traced bool
	cache  string
	resp   server.ProfileResponse
	body   [32]byte // hash of the body without elapsed_ms
	err    error
	// pick is when the request left for a connection; a traced request
	// also records when its upload was written, from the transport's
	// goroutine (hence wroteMu).
	pick    time.Time
	wroteMu sync.Mutex
	wrote   time.Time
}

func (sv *served) wroteAt() time.Time {
	sv.wroteMu.Lock()
	defer sv.wroteMu.Unlock()
	return sv.wrote
}

// elapsedField is the one per-request field of a profile response.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]*,?`)

type serveRun struct {
	rc     runConfig
	w      serveWorkload
	r      *report
	client *http.Client
	hot    []key

	mu      sync.Mutex
	replies map[int]*served
}

// keyFor returns request i's profile key. In a cold workload every key
// is unique; in a mixed one, one request in each block of ten (at a
// seeded position) is unique and the rest draw from the hot set, so the
// hit share is exactly 90% by construction.
func (s *serveRun) keyFor(i int) (key, bool) {
	unique := key{i % len(s.w.uploads), seedFor(s.rc.seed, streamUniqueKey, i)}
	if s.w.hotKeys == 0 || uint64(i%10) == seedFor(s.rc.seed, streamMissSlot, i/10)%10 {
		return unique, false
	}
	return s.hot[seedFor(s.rc.seed, streamHotPick, i)%uint64(s.w.hotKeys)], true
}

// post uploads one profile request and reads the reply.
func (s *serveRun) post(base string, k key, id string, traced bool) *served {
	sv := &served{key: k, traced: traced, pick: time.Now()}
	url := fmt.Sprintf("%s/v1/profile?n=%d&seed=%d", base, s.w.n, k.seed)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(s.w.uploads[k.trace].Data))
	if err != nil {
		sv.err = err
		return sv
	}
	req.Header.Set("X-Request-Id", id)
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) {
				sv.wroteMu.Lock()
				defer sv.wroteMu.Unlock()
				sv.wrote = time.Now()
			},
		}))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		sv.err = err
		return sv
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	sv.cache = resp.Header.Get("X-Simprof-Cache")
	switch {
	case err != nil:
		sv.err = err
	case resp.StatusCode != http.StatusOK:
		sv.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		sv.err = json.Unmarshal(body, &sv.resp)
		sv.body = sha256.Sum256(elapsedField.ReplaceAll(body, nil))
	}
	return sv
}

// do runs measured request i against the service.
func (s *serveRun) do(base string) func(i int) error {
	return func(i int) error {
		k, hot := s.keyFor(i)
		traced := s.rc.traced && (i/len(s.w.uploads))%2 == 1
		sv := s.post(base, k, fmt.Sprintf("m%07d", i), traced)
		sv.hot = hot
		s.mu.Lock()
		s.replies[i] = sv
		s.mu.Unlock()
		return sv.err
	}
}

// runServe runs a serve workload against the simprofd binary.
func runServe(rc runConfig, w serveWorkload, r *report) (attempted, failed int, err error) {
	s := &serveRun{rc: rc, w: w, r: r, replies: map[int]*served{}}
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	s.client = &http.Client{Transport: transport, Timeout: failLatency}
	for h := 0; h < w.hotKeys; h++ {
		s.hot = append(s.hot, key{h % len(w.uploads), seedFor(rc.seed, streamHotKey, h)})
	}

	historyPath := filepath.Join(rc.runDir, "history.jsonl")
	accessPath := filepath.Join(rc.runDir, "access.jsonl")
	if w.preseed > 0 {
		if err := preseedHistory(historyPath, w.preseed, w.uploads, rc.seed); err != nil {
			return 0, 0, fmt.Errorf("preseed history: %w", err)
		}
	}

	// Set-up: exec → /readyz 200 (history recovery included) → warm-up
	// requests answered, setupReps times on the same store; the last
	// child serves the measured load.
	var setups []time.Duration
	var ch *child
	warmFails := 0
	setupWin := hostWindow{start: readCPUTimes()}
	for rep := 0; rep < setupReps; rep++ {
		setupWin.probes = append(setupWin.probes, probe())
		t := time.Now()
		ch, err = startChild(rc.simprofd, rc.runDir, rep, historyPath, accessPath)
		if err != nil {
			return 0, 0, err
		}
		if err := ch.waitReady(s.client); err != nil {
			ch.stop()
			return 0, 0, err
		}
		for i := 0; i < w.warmups; i++ {
			k := key{i % len(w.uploads), seedFor(rc.seed, streamSetup, rep*w.warmups+i)}
			if sv := s.post(ch.base, k, fmt.Sprintf("w%d-%d", rep, i), false); sv.err != nil {
				warmFails++
			}
		}
		setups = append(setups, time.Since(t))
		if rep < setupReps-1 {
			if err := ch.stop(); err != nil {
				return 0, 0, err
			}
		}
	}
	defer ch.stop()
	setupWin.end = readCPUTimes()
	r.setAtRef("setup_s", "s", medianDur(setups).Seconds(), setupWin, false)
	windowLedger(r, "ledger.setup", setupWin)

	// The hot set is filled before timing, as a fleet replaying profiles
	// it has seen before would have it.
	hotBody := map[key][32]byte{}
	t := time.Now()
	for h, k := range s.hot {
		sv := s.post(ch.base, k, fmt.Sprintf("h%d", h), false)
		if sv.err != nil || sv.cache != "miss" {
			warmFails++
		}
		hotBody[k] = sv.body
	}
	if w.hotKeys > 0 {
		r.set("ledger.hot_warm_s", "s", time.Since(t).Seconds())
	}

	before, err := scrape(s.client, ch.base)
	if err != nil {
		return 0, 0, err
	}
	nOpen := int(w.openRate*rc.seconds.Seconds()*w.openShare + 0.5)
	if rc.traced {
		// Traced and untraced requests alternate by round of uploads, so
		// both halves see every trace; a traced run has at least one of
		// each.
		nOpen = max(nOpen, 2*len(w.uploads))
	}
	meter := startSpeedometer()
	openWin := hostWindow{start: readCPUTimes()}
	open := openLoop(w.openRate, nOpen, conns, s.do(ch.base))
	closedWin := hostWindow{start: readCPUTimes()}
	openWin.end = closedWin.start
	closedStart := time.Now()
	closed, closedElapsed := closedLoop(time.Duration(float64(rc.seconds)*(1-w.openShare)), conns, nOpen, s.do(ch.base))
	closedWin.end = readCPUTimes()
	for _, p := range meter.stop() {
		if p.At.Before(closedStart) {
			openWin.probes = append(openWin.probes, p)
		} else {
			closedWin.probes = append(closedWin.probes, p)
		}
	}
	if len(closedWin.probes) == 0 { // a loop shorter than probeInterval
		closedWin.probes = openWin.probes
	}
	after, err := scrape(s.client, ch.base)
	if err != nil {
		return 0, 0, err
	}
	if hwm, err := peakRSS(strconv.Itoa(ch.cmd.Process.Pid)); err != nil {
		r.check("simprofd peak RSS read", false, "%v", err)
	} else {
		r.set("rss_peak_mb", "MB", hwm)
	}
	if err := ch.stop(); err != nil {
		return 0, 0, err
	}
	access, err := readAccessLog(accessPath)
	if err != nil {
		return 0, 0, err
	}
	c := diffSnapshots(before, after)

	all := append(open[:len(open):len(open)], closed...)
	for _, tm := range all {
		if tm.Failed {
			failed++
		}
	}
	s.latencyMetrics(open, closed, closedElapsed, openWin, closedWin)
	s.serviceLayers(open, access, c, historyPath)
	s.checks(all, hotBody, warmFails)
	if rc.traced {
		s.replay(open, access, c)
	}
	return len(all), failed, nil
}

func (s *serveRun) reply(i int) *served {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replies[i]
}

// latencyMetrics publishes the end-to-end numbers: open-loop latency
// from each request's due time (failures count as missing the limit),
// closed-loop saturation throughput, each at the reference speed of its
// own loop's window, and the estimate quality over the distinct profiles
// of the open loop.
func (s *serveRun) latencyMetrics(open, closed []timing, closedElapsed time.Duration, openWin, closedWin hostWindow) {
	r := s.r
	var untraced, traced []timing
	for _, tm := range open {
		if s.reply(tm.Index).traced {
			traced = append(traced, tm)
		} else {
			untraced = append(untraced, tm)
		}
	}
	windowLedger(r, "ledger.open", openWin)
	windowLedger(r, "ledger.closed", closedWin)
	ls := summarize(untraced)
	r.setAtRef("latency_ms_p50", "ms", ls.P50, openWin, false)
	r.setAtRef("latency_ms_tail", "ms", ls.Tail, openWin, false)
	r.set("ledger.tail_percentile", "count", float64(ls.TailPct))
	r.set("ledger.latency_samples", "count", float64(ls.N))
	r.set("ledger.over_limit_pct", "%", pct(float64(ls.OverLimit), float64(ls.N)))
	ok := 0
	for _, tm := range closed {
		if !tm.Failed {
			ok++
		}
	}
	r.setAtRef("throughput_per_s", "1/s", ratio(float64(ok), closedElapsed.Seconds()), closedWin, true)
	r.set("ledger.closed_ms_p50", "ms", summarize(closed).P50)
	if s.rc.traced {
		r.set("obs.traced_overhead_pct", "%", 100*(summarize(traced).P50/summarize(untraced).P50-1))
	}

	// Quality covers the open loop alone: its requests are fixed by the
	// seed, while the closed loop's count depends on the host's speed.
	seen := map[key]bool{}
	var ests []estimate
	for _, tm := range open {
		sv := s.reply(tm.Index)
		if sv.err != nil || seen[sv.key] {
			continue
		}
		seen[sv.key] = true
		ests = append(ests, estimate{sv.resp.EstCPI, sv.resp.CILo, sv.resp.CIHi, s.w.uploads[sv.key.trace].Oracle})
	}
	qualityMetrics(r, ests)

	for _, tm := range open {
		sv := s.reply(tm.Index)
		if sv.err == nil {
			r.digest.add(fmt.Sprintf("%d|%d|%d|%d|%g|%d|%g|%g|%g|%g|%v", sv.key.trace, sv.key.seed,
				sv.resp.Units, sv.resp.K, sv.resp.Silhouette, sv.resp.N, sv.resp.EstCPI, sv.resp.SE,
				sv.resp.CILo, sv.resp.CIHi, sv.resp.Alloc))
		}
	}
}

// serviceLayers splits each open-loop request's latency, joined to its
// access-log line, into connection wait, transport (HTTP and upload
// outside the handler), batch enqueue wait, history append and the rest
// of the handler (read, hash, cache, pipeline, encode), and publishes
// the batch, history and resilience counters simprofd recorded.
func (s *serveRun) serviceLayers(open []timing, access map[string]accessEntry, c counters, historyPath string) {
	r := s.r
	var lat, wait, transport, enqueue, flush, exec float64
	var handles, transports, waits, enqueues, flushes, late, uploads []float64
	for _, tm := range open {
		sv := s.reply(tm.Index)
		a, ok := access[fmt.Sprintf("m%07d", tm.Index)]
		if sv.err != nil || !ok {
			continue
		}
		l, wt := ms(tm.Latency), ms(tm.Wait)
		tr := l - wt - a.HandleMS
		lat += l
		wait += wt
		transport += tr
		enqueue += a.EnqueueMS
		flush += a.FlushMS
		exec += a.HandleMS - a.EnqueueMS - a.FlushMS
		handles = append(handles, a.HandleMS)
		transports = append(transports, tr)
		waits = append(waits, wt)
		late = append(late, ms(tm.Late))
		if sv.cache == "miss" {
			enqueues = append(enqueues, a.EnqueueMS)
			flushes = append(flushes, a.FlushMS)
		}
		if w := sv.wroteAt(); sv.traced && !w.IsZero() {
			uploads = append(uploads, ms(w.Sub(sv.pick)))
		}
	}
	r.set("loadgen.conn_wait_pct", "%", pct(wait, lat))
	r.set("server.transport_pct", "%", pct(transport, lat))
	r.set("batch.enqueue_wait_pct", "%", pct(enqueue, lat))
	r.set("history.append_pct", "%", pct(flush, lat))
	r.set("server.exec_pct", "%", pct(exec, lat))
	r.set("loadgen.late_ms_p99", "ms", percentile(late, 99))
	tailOf := func(v []float64) float64 { return percentile(v, tailPercentile(len(v))) }
	r.set("loadgen.conn_wait_ms_p50", "ms", percentile(waits, 50))
	r.set("loadgen.conn_wait_ms_tail", "ms", tailOf(waits))
	r.set("server.handle_ms_p50", "ms", percentile(handles, 50))
	r.set("server.handle_ms_tail", "ms", tailOf(handles))
	r.set("server.transport_ms_p50", "ms", percentile(transports, 50))
	r.set("batch.enqueue_wait_ms_p50", "ms", percentile(enqueues, 50))
	r.set("batch.enqueue_wait_ms_tail", "ms", tailOf(enqueues))
	r.set("history.append_ms_p50", "ms", percentile(flushes, 50))
	r.set("history.append_ms_tail", "ms", tailOf(flushes))
	if len(uploads) > 0 {
		r.set("server.upload_ms_p50", "ms", percentile(uploads, 50))
	}

	lookups := c.v("batch.cache_hits") + c.v("batch.cache_misses")
	r.set("batch.hit_pct", "%", pct(c.v("batch.cache_hits"), lookups))
	r.set("batch.coalesced_pct", "%", pct(c.v("batch.coalesced"), lookups))
	r.set("batch.flush_size_mean", "count", c.histMean("batch.flush_size"))
	r.set("batch.evictions", "count", c.v("batch.cache_evictions"))
	r.set("batch.exec_ms_mean", "ms", 1000*c.histMean("batch.stage_seconds{stage=exec}"))
	r.set("history.fsyncs", "count", c.v("history.fsyncs"))
	if fi, err := os.Stat(historyPath); err == nil {
		r.set("history.store_mb_end", "MB", float64(fi.Size())/1e6)
	}
	r.set("resilience.admit_rejected", "count", c.v("resilience.admit_rejected"))
	r.set("resilience.retries", "count", c.v("resilience.retries"))
	r.set("resilience.breaker_opens", "count", c.v("resilience.breaker_opens"))
}

// checks verifies the service's answers: every request succeeded, each
// allocation spends n and each CI contains its estimate, the cache
// verdicts match the schedule, and every cached answer equals the
// computed one byte for byte (the per-request elapsed_ms aside).
func (s *serveRun) checks(all []timing, hotBody map[key][32]byte, warmFails int) {
	r := s.r
	failed, badAlloc, badCI, badCache, badBody, hits, total := 0, 0, 0, 0, 0, 0, 0
	for _, tm := range all {
		sv := s.reply(tm.Index)
		total++
		if sv.err != nil {
			failed++
			continue
		}
		a := 0
		for _, x := range sv.resp.Alloc {
			a += x
		}
		if a != min(s.w.n, sv.resp.Units) {
			badAlloc++
		}
		if !(sv.resp.CILo <= sv.resp.EstCPI && sv.resp.EstCPI <= sv.resp.CIHi) {
			badCI++
		}
		want := "miss"
		if sv.hot {
			want = "hit"
			hits++
			if sv.body != hotBody[sv.key] {
				badBody++
			}
		}
		if sv.cache != want {
			badCache++
		}
	}
	r.set("loadgen.sent", "count", float64(total))
	r.set("loadgen.ok", "count", float64(total-failed))
	r.set("loadgen.failed", "count", float64(failed))
	r.check("no profile errors", failed == 0 && warmFails == 0, "%d of %d measured requests failed, %d set-up or warm-up requests failed", failed, total, warmFails)
	r.check("allocation sums to n", badAlloc == 0, "%d responses with Σalloc ≠ n=%d", badAlloc, s.w.n)
	r.check("CI contains estimate", badCI == 0, "%d responses", badCI)
	if s.w.hotKeys == 0 {
		r.check("every request a cache miss", badCache == 0, "%d responses not X-Simprof-Cache: miss", badCache)
		return
	}
	r.check("cache verdicts match the schedule", badCache == 0, "%d hot requests not hit or unique requests not miss", badCache)
	share := pct(float64(hits), float64(total))
	r.check("hit share 90±2%", total < 50 || (share >= 88 && share <= 92), "%.2f%% of %d requests", share, total)
	r.check("cached equals computed", badBody == 0, "%d cached responses differ from the computed one", badBody)
}

// replay runs distinct uploads of the open loop through the pipeline in
// process with the service's options, for the stage times simprofd does
// not expose, and checks each in-process answer against the served one.
func (s *serveRun) replay(open []timing, access map[string]accessEntry, c counters) {
	var ops []profileOp
	mismatch := 0
	seen := map[key]bool{}
	for _, tm := range open {
		if len(ops) == s.w.replays {
			break
		}
		sv := s.reply(tm.Index)
		if sv.err != nil || seen[sv.key] {
			continue
		}
		seen[sv.key] = true
		op := runProfile(s.w.uploads[sv.key.trace], sv.key.trace, phase.Options{}, s.w.n, sv.key.seed, true)
		if op.Err == nil && (op.K != sv.resp.K || op.Est != sv.resp.EstCPI || op.SE != sv.resp.SE ||
			op.Lo != sv.resp.CILo || op.Hi != sv.resp.CIHi) {
			mismatch++
		}
		ops = append(ops, op)
	}
	// The stages should account for the handler time of a miss outside
	// batching and history: body read, hash, pipeline and encode.
	var served, ks []float64
	for i, sv := range s.replies {
		if sv.err != nil || sv.cache != "miss" {
			continue
		}
		ks = append(ks, float64(sv.resp.K))
		if a, ok := access[fmt.Sprintf("m%07d", i)]; ok {
			served = append(served, a.HandleMS-a.EnqueueMS-a.FlushMS)
		}
	}
	pipelineLayers(s.r, ops, s.w.uploads, c, percentile(served, 50))
	s.r.set("cluster.k_chosen_mean", "count", mean(ks))
	s.r.check("served equals in-process", mismatch == 0, "%d of %d replays differ from the served answer", mismatch, len(ops))
	tracedChecks(s.r, ops)
}

// accessEntry is the part of a simprofd access-log line the ledger uses.
type accessEntry struct {
	ID        string  `json:"id"`
	Route     string  `json:"route"`
	Status    int     `json:"status"`
	EnqueueMS float64 `json:"enqueue_ms"`
	FlushMS   float64 `json:"flush_ms"`
	HandleMS  float64 `json:"handle_ms"`
}

// readAccessLog indexes the profile requests of an access log by id.
func readAccessLog(path string) (map[string]accessEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]accessEntry{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e accessEntry
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Route == "/v1/profile" {
			out[e.ID] = e
		}
	}
	return out, sc.Err()
}

// scrape reads simprofd's obs snapshot from /v1/metrics.
func scrape(client *http.Client, base string) ([]obs.Metric, error) {
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	var ms []obs.Metric
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return ms, nil
}

// child is a running simprofd process.
type child struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
	once   sync.Once
	err    error
}

// startChild execs `simprofd serve` on a free loopback port with the
// given history store and access log.
func startChild(bin, dir string, rep int, historyPath, accessPath string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("simprofd-%d.log", rep)))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-addr", addr, "-history", historyPath, "-access-log", accessPath)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start simprofd: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	children.add(c)
	return c, nil
}

// waitReady polls /readyz until the service answers 200.
func (c *child) waitReady(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return fmt.Errorf("simprofd exited before ready: %v (log: %s)", c.err, c.log.Name())
		default:
		}
		resp, err := client.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("simprofd not ready within 30s")
}

// stop drains the service with SIGTERM and waits for it to exit,
// killing it if the drain hangs. Safe to call more than once.
func (c *child) stop() error {
	var err error
	c.once.Do(func() {
		defer children.remove(c)
		defer c.log.Close()
		if e := c.cmd.Process.Signal(syscall.SIGTERM); e != nil && !errors.Is(e, os.ErrProcessDone) {
			err = e
		}
		select {
		case <-c.exited:
		case <-time.After(30 * time.Second):
			c.cmd.Process.Kill()
			<-c.exited
			err = errors.New("simprofd did not drain within 30s; killed")
		}
		if err == nil && c.err != nil {
			err = fmt.Errorf("simprofd exit: %w (log: %s)", c.err, c.log.Name())
		}
	})
	return err
}

// children tracks running simprofd processes so an interrupted run can
// stop them.
var children = &childSet{m: map[*child]bool{}}

type childSet struct {
	mu sync.Mutex
	m  map[*child]bool
}

func (s *childSet) add(c *child) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[c] = true
}

func (s *childSet) remove(c *child) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, c)
}

// stopAll stops every running child.
func (s *childSet) stopAll() {
	s.mu.Lock()
	cs := make([]*child, 0, len(s.m))
	for c := range s.m {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}
