// Command e2ebench is the repository's end-to-end benchmark: it builds
// the whole stack from public constructors — owner, write-ahead log,
// query server, network server on loopback, verifying client — runs one
// seeded workload through it, checks every accepted answer against a
// reference model of its own, and prints each metric with its unit.
//
//	go build -o e2ebench . && ./e2ebench --workload hot-read --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (run.sh builds and runs it there).
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the workload once untraced and once traced
// and reports the per-layer metrics, the trace's coverage and the
// tracing overhead. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"authdb/internal/anscache"
	"authdb/internal/client"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
)

// workload is one seeded traffic mix.
type workload struct {
	name string
	// roundsPerSecond converts --seconds into a fixed number of rounds
	// (about one second of work per unit on a 2-vCPU machine), so a run
	// is a count of operations, never a wall-clock window.
	roundsPerSecond int
	// blockRounds is the size of one throughput block: a whole number
	// of every count-triggered duty's period, so each block does the
	// same mix of work.
	blockRounds int
	setup       func(b *run) (*stack, error)
	loop        func(b *run, st *stack, rounds int)
	recover     func(b *run, st *stack) error
}

var workloads = []*workload{hotRead, writeChurn, planJoin}

// setups is how many times each run builds the stack; setup_s is their
// median and the last one is measured.
const setups = 3

// recoveries is how many times each run reopens and recovers the
// stores after the loop; recovery_s is their median.
const recoveries = 15

// run is one pass of a workload and everything it measured.
type run struct {
	seed    int64
	tr      *tracer
	workDir string
	ts      int64 // the owner's logical clock

	// setupNS and recoverNS are host-granted times (see stopwatch);
	// setupWallNS and recoverWallNS are the same intervals on the wall
	// clock, printed beside them.
	setupNS, setupWallNS     []int64
	loadNS                   []int64 // owner Load time per set-up (both relations on plan-join)
	recoverNS, recoverWallNS []int64

	loopNS          int64 // wall clock
	loopHostNS      int64 // host-granted
	loopStart       int64 // tracer clock
	loopEnd         int64
	readNS, writeNS []int64
	answers, writes int
	attempted       int
	failed          int
	firstFail       error
	wrong           int
	firstWrong      error
	sigs            int
	coreB, tailB    int64 // traced runs: answer-core and summary-tail bytes
	before, after   counters
	walBytes        int64
	sweeping        bool    // the post-recovery sweep: checked, not timed
	stealPct        float64 // host steal time during the loop, % of all CPU time
	blockRounds     int
	rounds          int
	blocks          []block // loop progress at every block boundary
	end             block   // and at the loop's end
}

// block is the loop's progress at one block boundary.
type block struct {
	at              stopwatch
	answers, writes int
	nRead, nWrite   int // latencies recorded so far
}

// roundDone ends one round of the loop, and a block every blockRounds
// rounds.
func (b *run) roundDone() {
	b.rounds++
	if b.rounds%b.blockRounds == 0 {
		b.blocks = append(b.blocks, b.progress())
	}
}

func (b *run) progress() block {
	return block{startWatch(), b.answers, b.writes, len(b.readNS), len(b.writeNS)}
}

// hostLatencies returns the read and write latencies with the host's
// steal taken out: each scaled by one minus the share of all CPU time
// stolen during the block it ran in (the loop's tail after the last
// whole block by that of the tail). An operation is one serial chain of
// work on one vCPU at a time, and it loses about the share of wall time
// the average vCPU lost, not the share of busy time that throughput
// loses (see stopwatch).
func (b *run) hostLatencies() (reads, writes []int64) {
	bounds := append(append([]block(nil), b.blocks...), b.end)
	for i := 1; i < len(bounds); i++ {
		prev, cur := bounds[i-1], bounds[i]
		share := 1 - cur.at.c.stealShare(prev.at.c)/100
		for _, ns := range b.readNS[prev.nRead:cur.nRead] {
			reads = append(reads, int64(float64(ns)*share))
		}
		for _, ns := range b.writeNS[prev.nWrite:cur.nWrite] {
			writes = append(writes, int64(float64(ns)*share))
		}
	}
	return reads, writes
}

// blockRates returns the median over the loop's blocks of the answers
// and writes completed per host-granted second. A host that steals CPU
// time in bursts slows some blocks and not others; the median over
// blocks is what the code sustains between bursts, where a whole-loop
// mean would follow the host. With no complete block, it is the whole
// loop's rate.
func (b *run) blockRates() (answers, writes float64) {
	if len(b.blocks) < 2 {
		sec := float64(b.loopHostNS) / 1e9
		return float64(b.answers) / sec, float64(b.writes) / sec
	}
	var as, ws []float64
	for i := 1; i < len(b.blocks); i++ {
		_, host := b.blocks[i-1].at.until(b.blocks[i].at)
		sec := float64(host) / 1e9
		as = append(as, float64(b.blocks[i].answers-b.blocks[i-1].answers)/sec)
		ws = append(ws, float64(b.blocks[i].writes-b.blocks[i-1].writes)/sec)
	}
	return medianF(as), medianF(ws)
}

func medianF(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// fail counts n failed operations.
func (b *run) fail(n int, err error) {
	b.failed += n
	if b.firstFail == nil {
		b.firstFail = err
	}
}

// mismatch records an accepted answer that differs from the model.
func (b *run) mismatch(err error) {
	b.wrong++
	if b.firstWrong == nil {
		b.firstWrong = err
	}
}

// counters are the program's own monotonic counters, read before and
// after the loop.
type counters struct {
	cl  client.Stats
	vs  sigagg.VerifyStats
	net server.NetStats
	ans anscache.Stats
	eng query.Stats
}

func (st *stack) counters() counters {
	c := counters{cl: st.cl.Stats(), net: st.srv.Stats()}
	if p, ok := st.cliSch.(sigagg.VerifyStatsProvider); ok {
		c.vs = p.VerifyStats()
	}
	for _, r := range st.rels {
		a := r.qs.ServingStats().Answers
		c.ans.Hits += a.Hits
		c.ans.Built += a.Built
		c.ans.Coalesced += a.Coalesced
		c.ans.Invalidations += a.Invalidations
	}
	if st.eng != nil {
		c.eng = st.eng.Stats()
		c.ans.Hits += c.eng.Cache.Hits
		c.ans.Built += c.eng.Cache.Built
		c.ans.Coalesced += c.eng.Cache.Coalesced
		c.ans.Invalidations += c.eng.Cache.Invalidations
	}
	return c
}

// pass builds the stack setups times, runs the loop on the last one,
// and optionally recovers it.
func (b *run) pass(w *workload, rounds int, recover bool) error {
	var st *stack
	for i := 0; i < setups; i++ {
		s, err := w.setup(b)
		if err != nil {
			if s != nil {
				s.discard()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		if i < setups-1 {
			s.discard()
			continue
		}
		st = s
	}
	defer st.discard()
	for _, r := range st.rels {
		if err := r.markWAL(false); err != nil {
			return err
		}
	}
	b.before = st.counters()
	if b.tr != nil {
		b.loopStart = b.tr.now()
	}
	sw := startWatch()
	b.blockRounds = w.blockRounds
	b.blocks = []block{{at: sw}}
	w.loop(b, st, rounds)
	b.end = b.progress()
	b.loopNS, b.loopHostNS = sw.until(b.end.at)
	b.stealPct = b.end.at.c.stealShare(sw.c)
	if b.tr != nil {
		b.loopEnd = b.tr.now()
	}
	b.after = st.counters()
	for _, r := range st.rels {
		if err := r.markWAL(true); err != nil {
			return err
		}
		b.walBytes += r.inWAL
	}
	if !recover {
		return nil
	}
	if err := st.close(); err != nil {
		return err
	}
	return w.recover(b, st)
}

// setupDone records one set-up that started at sw (after its inputs
// were generated) and spent loadNS in the owners' Load.
func (b *run) setupDone(sw stopwatch, loadNS int64) {
	wall, host := sw.lap()
	b.setupNS = append(b.setupNS, host)
	b.setupWallNS = append(b.setupWallNS, wall)
	b.loadNS = append(b.loadNS, loadNS)
}

// recovered records one recovery timed from sw.
func (b *run) recovered(sw stopwatch) {
	wall, host := sw.lap()
	b.recoverNS = append(b.recoverNS, host)
	b.recoverWallNS = append(b.recoverWallNS, wall)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: hot-read, write-churn or plan-join")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length; the workload runs seconds × its rounds-per-second")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload hot-read|write-churn|plan-join --seed N --seconds N --trace 0|1\n")
		return 2
	}
	// A hung program must not hang the benchmark.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Printf("e2ebench: %s\n", envStamp())
	rounds := *seconds * w.roundsPerSecond
	res, err := measure(w, *seed, rounds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the workload and computes the metrics of the requested
// mode.
func measure(w *workload, seed int64, rounds int, traced bool) (*result, error) {
	dir, err := makeWorkDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	plain := &run{seed: seed, workDir: dir}
	if err := plain.pass(w, rounds, !traced); err != nil {
		return nil, err
	}
	runs := []*run{plain}
	var metrics map[string]metric
	if traced {
		tr := &run{seed: seed, workDir: dir, tr: newTracer()}
		if err := tr.pass(w, rounds, true); err != nil {
			return nil, err
		}
		runs = append(runs, tr)
		spans := tr.tr.assemble()
		path := filepath.Join(".bench_build", "e2ebench-traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("e2ebench: %d spans written to %s\n", len(spans), path)
		metrics = layerMetrics(plain, tr, analyze(spans, tr.loopStart, tr.loopEnd))
	} else {
		metrics = endToEnd(plain)
	}

	res := &result{Correct: true, Metrics: metrics}
	for _, r := range runs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.wrong > 0 {
			res.Correct = false
		}
		fmt.Printf("e2ebench: workload=%s seed=%d rounds=%d traced=%v attempted=%d failed=%d model-mismatches=%d host-steal=%.1f%% host-granted=%.3f\n",
			w.name, seed, rounds, r.tr != nil, r.attempted, r.failed, r.wrong, r.stealPct, float64(r.loopHostNS)/float64(r.loopNS))
		if r.firstFail != nil {
			fmt.Printf("e2ebench: first failure: %v\n", r.firstFail)
		}
		if r.firstWrong != nil {
			fmt.Printf("e2ebench: first model mismatch: %v\n", r.firstWrong)
		}
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("e2ebench: %-32s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return res, nil
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(b *run) map[string]metric {
	sec := float64(b.loopNS) / 1e9
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	qps, wps := b.blockRates()
	fmt.Printf("e2ebench: whole loop: %.1f answers/s, %.1f writes/s over %.2f wall s in %d blocks of %d rounds\n",
		float64(b.answers)/sec, float64(b.writes)/sec, sec, len(b.blocks)-1, b.blockRounds)
	fmt.Printf("e2ebench: wall clock: recovery %.4f s, set-up %.4f s (medians)\n",
		float64(median(b.recoverWallNS))/1e9, float64(median(b.setupWallNS))/1e9)
	// The write tail is printed, not returned: it follows the host's
	// steal time too closely to hold a bound (see README.md).
	fmt.Printf("e2ebench: wall clock: read p50 %.4f ms, read p90 %.4f ms, write p50 %.4f ms, write p90 %.4f ms\n",
		ms(percentile(b.readNS, 50)), ms(percentile(b.readNS, 90)), ms(percentile(b.writeNS, 50)), ms(percentile(b.writeNS, 90)))
	reads, writes := b.hostLatencies()
	fmt.Printf("e2ebench: write_p90_ms %.4f ms (unbounded)\n", ms(percentile(writes, 90)))
	var walPerWrite float64
	if b.writes > 0 {
		walPerWrite = float64(b.walBytes) / float64(b.writes)
	}
	var bytesPer float64
	if b.answers > 0 {
		bytesPer = float64(b.after.cl.BytesIn-b.before.cl.BytesIn) / float64(b.answers)
	}
	return map[string]metric{
		"verified_qps":         {qps, "answers/s"},
		"read_p50_ms":          {ms(percentile(reads, 50)), "ms"},
		"read_p90_ms":          {ms(percentile(reads, 90)), "ms"},
		"bytes_per_answer":     {bytesPer, "B"},
		"durable_writes_per_s": {wps, "writes/s"},
		"write_p50_ms":         {ms(percentile(writes, 50)), "ms"},
		"wal_bytes_per_write":  {walPerWrite, "B"},
		"recovery_s":           {float64(median(b.recoverNS)) / 1e9, "s"},
		"setup_s":              {float64(median(b.setupNS)) / 1e9, "s"},
		"peak_rss_mb":          {peakRSSMiB(), "MiB"},
	}
}

// layerMetrics computes the per-layer metrics of a traced pass; plain
// is the untraced pass over the same inputs.
func layerMetrics(plain, b *run, rep *traceReport) map[string]metric {
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	ratio := func(hit, miss uint64) float64 { return per(float64(hit), float64(hit+miss)) }
	us := float64(time.Microsecond)
	answers := float64(b.answers)
	d := func(a, z uint64) float64 { return float64(a - z) }
	bc, ac := b.before, b.after

	// Client time per answer, split at the moment the server's last
	// response byte left: before it the request was being fetched,
	// after it the client was decoding and verifying. Pipelined 'Q'
	// batches time FetchBatch and Verify directly.
	fetchNS, _ := rep.sum("client.fetch")
	verifyNS, _ := rep.sum("client.verify")
	for _, s := range rep.byName["client.plan"] {
		if h := rep.handleOf(s); h != nil {
			fetchNS += h.End - s.Start
			verifyNS += s.End - h.End
		} else {
			fetchNS += s.dur()
		}
	}
	handleNS, _ := rep.sum("server.handle")
	plans := float64(len(rep.byName["client.plan"]))
	engLookups := d(ac.eng.Cache.Hits, bc.eng.Cache.Hits) + d(ac.eng.Cache.Built, bc.eng.Cache.Built) +
		d(ac.eng.Cache.Coalesced, bc.eng.Cache.Coalesced)
	ansLookups := d(ac.ans.Hits, bc.ans.Hits) + d(ac.ans.Built, bc.ans.Built) + d(ac.ans.Coalesced, bc.ans.Coalesced)

	m := map[string]metric{
		"core.da_write_us":            {rep.mean("core.da_write", time.Microsecond), "us"},
		"core.da_sigs_per_write":      {per(float64(b.sigs), float64(b.writes)), "count"},
		"core.da_close_period_ms":     {rep.mean("core.da_close_period", time.Millisecond), "ms"},
		"core.da_load_s":              {float64(median(b.loadNS)) / 1e9, "s"},
		"core.qs_apply_us":            {rep.mean("core.qs_apply", time.Microsecond), "us"},
		"wal.append_us":               {rep.mean("wal.append", time.Microsecond), "us"},
		"wal.snapshot_ms":             {rep.mean("wal.snapshot", time.Millisecond), "ms"},
		"wal.recover_s":               {float64(median(b.recoverNS)) / 1e9, "s"},
		"anscache.hit_ratio":          {per(d(ac.ans.Hits, bc.ans.Hits), ansLookups), "ratio"},
		"anscache.invalidations":      {d(ac.ans.Invalidations, bc.ans.Invalidations), "count"},
		"anscache.coalesced":          {d(ac.ans.Coalesced, bc.ans.Coalesced), "count"},
		"server.handle_us_per_answer": {per(float64(handleNS)/us, answers), "us"},
		"server.shed":                 {d(ac.net.Shed, bc.net.Shed), "count"},
		"server.queued":               {d(ac.net.Queued, bc.net.Queued), "count"},
		"wire.core_bytes_per_answer":  {per(float64(b.coreB), answers), "B"},
		"wire.tail_bytes_per_answer":  {per(float64(b.tailB), answers), "B"},
		"query.plan_cache_hit_ratio":  {per(d(ac.eng.Cache.Hits, bc.eng.Cache.Hits), engLookups), "ratio"},
		"query.join_probes_per_plan":  {per(d(ac.eng.JoinProbes, bc.eng.JoinProbes), plans), "count"},
		"query.bf_fallbacks_per_plan": {per(d(ac.eng.BFFallbacks, bc.eng.BFFallbacks), plans), "count"},
		"query.proj_rows_per_plan":    {per(d(ac.eng.ProjRows, bc.eng.ProjRows), plans), "count"},
		"client.fetch_us_per_answer":  {per(float64(fetchNS)/us, answers), "us"},
		"client.verify_us_per_answer": {per(float64(verifyNS)/us, answers), "us"},
		"client.summaries_per_answer": {per(d(ac.cl.Summaries, bc.cl.Summaries), answers), "count"},
		"sigagg.h2c_hit_ratio":        {ratio(ac.vs.H2CCacheHits-bc.vs.H2CCacheHits, ac.vs.H2CCacheMisses-bc.vs.H2CCacheMisses), "ratio"},
		"sigagg.agg_hit_ratio":        {ratio(ac.vs.AggCacheHits-bc.vs.AggCacheHits, ac.vs.AggCacheMisses-bc.vs.AggCacheMisses), "ratio"},
		"client.self_share":           {rep.selfShare("client"), "%"},
		"server.self_share":           {rep.selfShare("server"), "%"},
		"core.self_share":             {rep.selfShare("core"), "%"},
		"wal.self_share":              {rep.selfShare("wal"), "%"},
		"trace.span_coverage":         {100 * float64(rep.covered) / float64(rep.elapsed), "%"},
		"trace.overhead_pct":          {100 * (float64(b.loopHostNS)/float64(plain.loopHostNS) - 1), "%"},
	}

	// Figures that exist on some workloads only are printed here rather
	// than returned: a metric of the result must be measured on all.
	fmt.Printf("e2ebench: workload-specific layer figures:\n")
	fmt.Printf("e2ebench:   query.serve_plan_us       %12.2f us  (%d calls)\n", rep.mean("query.serve_plan", time.Microsecond), len(rep.byName["query.serve_plan"]))
	fmt.Printf("e2ebench:   client.plan_us            %12.2f us  (%d calls)\n", rep.mean("client.plan", time.Microsecond), len(rep.byName["client.plan"]))
	fmt.Printf("e2ebench:   core.da_certify_filter_ms %12.3f ms  (%d calls)\n", rep.mean("core.da_certify_filter", time.Millisecond), len(rep.byName["core.da_certify_filter"]))
	fmt.Printf("e2ebench:   wire.encode_us            %12.2f us  (%d calls)\n", rep.mean("wire.encode", time.Microsecond), len(rep.byName["wire.encode"]))
	layers := make([]string, 0, len(rep.selfNS))
	for l := range rep.selfNS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("e2ebench:   self time %-10s %8.2f%% of the loop\n", l, rep.selfShare(l))
	}
	return m
}

// ---- helpers ----

// percentile is the nearest-rank p-th percentile of ns.
func percentile(ns []int64, p float64) int64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*p/100+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func median(ns []int64) int64 { return percentile(ns, 50) }

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks is the machine-wide CPU time split from /proc/stat: time
// the vCPUs ran (user, nice, system, irq, softirq), time the hypervisor
// stole from them, and the total with idle and iowait.
type cpuTicks struct{ busy, steal, total int64 }

func readCPUTicks() cpuTicks {
	var t cpuTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// Fields 9 and 10 (guest, guest_nice) are already counted in user
	// and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		t.total += v
		switch i {
		case 1, 2, 3, 6, 7:
			t.busy += v
		case 8:
			t.steal = v
		}
	}
	return t
}

// stolen is the share of the time since t0 that the machine's vCPUs
// had work but the hypervisor ran something else: steal over busy plus
// steal. Idle time does not count; a vCPU with nothing to run loses
// nothing to steal.
func (t cpuTicks) stolen(t0 cpuTicks) float64 {
	steal, busy := t.steal-t0.steal, t.busy-t0.busy
	if steal <= 0 || busy+steal <= 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// stopwatch times an interval twice: on the wall clock, and on the
// host-granted clock, which is the wall time less the share of it the
// hypervisor stole from the machine while it had work (see stolen). On
// a dedicated machine the two read the same. On a shared host the steal
// comes in phases that last minutes and slowed wall-clock throughput by
// a third and median latencies by a quarter to a third at 25% steal, so every
// timed metric has the steal taken out: throughput blocks, set-ups and
// recoveries, whose work fills both vCPUs, on this clock; single
// operations, which span less than one 10 ms tick of /proc/stat, by
// their block's share (see hostLatencies).
type stopwatch struct {
	t time.Time
	c cpuTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPUTicks()} }

// until returns the wall and host-granted nanoseconds from w to end.
func (w stopwatch) until(end stopwatch) (wall, host int64) {
	wall = end.t.Sub(w.t).Nanoseconds()
	return wall, int64(float64(wall) * (1 - end.c.stolen(w.c)))
}

// lap returns the wall and host-granted nanoseconds since w.
func (w stopwatch) lap() (wall, host int64) { return w.until(startWatch()) }

// stealShare is the percentage of all CPU time since t0 that the host
// stole from this machine's vCPUs. Runs print it, and single
// operations' latencies are scaled by it (see hostLatencies).
func (t cpuTicks) stealShare(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// envStamp names what was measured and where: the commit (when run in a
// git checkout), a digest of the Go sources, the Go version, GOMAXPROCS
// and the CPU count.
func envStamp() string {
	commit := "none"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return fmt.Sprintf("commit=%s source=%s go=%s GOMAXPROCS=%d nproc=%d",
		commit, sourceDigest("."), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// sourceDigest hashes every Go source and module file under root, so a
// result can be tied to the code even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
