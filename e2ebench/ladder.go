package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pstap/internal/cube"
	"pstap/internal/dist"
	"pstap/internal/mp"
	"pstap/internal/obs"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/serve"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// ladder is the traced per-layer run: each rung drives one module's
// public functions on the workload's scene and pooled jobs, with a span
// around every call, for its share of the time budget.
type ladder struct {
	res   *result
	w     workload
	sc    *radar.Scene
	a     pipeline.Assignment
	jp    *jobPool
	tr    *tracer
	share time.Duration

	pipelineNsPerCPI float64
	distNsPerCPI     float64
	// nodes are in-process dist nodes in pairs: pair 0 for the dist
	// rung, pair 1 for the split workload's serve rung, so neither waits
	// for the other's session to wind down.
	nodes     []*dist.Node
	nodeAddrs []string
	serving   sync.WaitGroup // the nodes' Serve loops
}

// rungShares are the rungs' relative time shares: kernelShares for the
// kernel chain, which runs every CPI three times, half a share for the mp
// ping-pong and one for each other rung.
const (
	rungShares   = 8
	kernelShares = 2
)

// runLadder runs every rung on the workload's inputs within budget, fills
// res with the per-layer metrics and writes the spans to spansPath.
func runLadder(res *result, w workload, seed int64, jp *jobPool, budget time.Duration, spansPath string) error {
	a, err := assignment()
	if err != nil {
		return err
	}
	l := &ladder{res: res, w: w, sc: w.scene(seed), a: a, jp: jp, tr: newTracer(), share: budget / rungShares}
	defer l.stopNodes()
	if err := l.startNodes(); err != nil {
		return err
	}
	for _, rung := range []func() error{l.kernels, l.wireCodec, l.msgs, l.pipeline, l.dist, l.serve} {
		if err := rung(); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return fmt.Errorf("spans dir: %w", err)
	}
	return l.tr.writeFile(spansPath)
}

// check counts one verified job.
func (l *ladder) check(what string, job int, ok bool) {
	l.res.Attempted++
	if !ok {
		l.res.Failed++
		l.res.fail("%s: job %d differs from the serial reference", what, job)
	}
}

// memCount reads the exact cumulative heap allocation counters
// (ReadMemStats flushes every P's cache first, unlike runtime/metrics).
func memCount() (allocBytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// acc accumulates one named call site's allocations.
type acc struct{ bytes, allocs uint64 }

// chain replays stap.Processor.Process kernel by kernel, so each kernel
// and the corner turn get their own span.
type chain struct {
	p         radar.Params
	rangeGain []float64
	mf        *stap.MatchedFilter
	easy      *stap.EasyWeightState
	hard      *stap.HardWeightState
	next      *stap.Weights
}

func newChain(sc *radar.Scene) *chain {
	p := sc.Params
	beamAz := sc.BeamAzimuths()
	gain := make([]float64, p.K)
	for r := range gain {
		gain[r] = 1 / sc.RangeGain(r)
	}
	return &chain{
		p: p, rangeGain: gain,
		mf:   stap.NewMatchedFilter(p.K, sc.Chirp()),
		easy: stap.NewEasyWeightState(p, beamAz),
		hard: stap.NewHardWeightState(p, beamAz),
		next: stap.SteeringWeights(p, beamAz),
	}
}

// process runs one CPI in Processor.Process order. step brackets each
// kernel with a child span of parent and an allocation count.
func (c *chain) process(raw *cube.Cube, step func(name string, f func())) *stap.Result {
	res := &stap.Result{}
	step("stap.doppler", func() { res.Doppler = stap.DopplerFilter(c.p, raw, c.rangeGain) })
	res.Applied = c.next
	var bfIn *cube.Cube
	step("cube.reorder", func() { bfIn = res.Doppler.Reorder(radar.BeamformInOrder) })
	step("stap.beamform", func() { res.Beamformed = stap.Beamform(c.p, bfIn, c.next) })
	step("stap.pulsecomp", func() { res.Power = stap.PulseCompress(c.p, res.Beamformed, c.mf) })
	step("stap.cfar", func() { res.Detections = stap.CFAR(c.p, res.Power) })
	w := &stap.Weights{}
	step("stap.easy_weights", func() { c.easy.Observe(res.Doppler); w.Easy = c.easy.Compute() })
	step("stap.hard_weights", func() { c.hard.Observe(res.Doppler); w.Hard = c.hard.Compute() })
	c.next = w
	return res
}

var kernelNames = []string{"stap.doppler", "stap.beamform", "stap.pulsecomp", "stap.cfar",
	"stap.easy_weights", "stap.hard_weights", "cube.reorder", "stap.serial"}

// kernels replays the serial chain kernel by kernel on every pooled job,
// twice per CPI: once traced, with a child span and an allocation count
// around every kernel, and once plain, with neither. Both replays must
// match Processor.Process bit for bit. It reports per-kernel time and
// allocations per CPI, and prices the tracing as the median over CPIs of
// the traced replay's time over the plain one's, less one. The two
// replays swap order from CPI to CPI, so that neither always runs on
// caches the other warmed.
func (l *ladder) kernels() error {
	accs := map[string]*acc{}
	for _, n := range kernelNames {
		accs[n] = &acc{}
	}
	var root, job int
	step := func(name string, f func()) {
		l.tr.reserve(1)
		b0, o0 := memCount()
		s := l.tr.begin(name, root, job)
		f()
		l.tr.end(s)
		b1, o1 := memCount()
		accs[name].bytes += b1 - b0
		accs[name].allocs += o1 - o0
	}
	plainStep := func(_ string, f func()) { f() }
	var overhead []float64
	var plainNs, tracedNs time.Duration
	cpis := 0
	start := time.Now()
	for n := 0; n < len(l.jp.jobs) || time.Since(start) < kernelShares*l.share; n++ {
		job = n % len(l.jp.jobs)
		traced, plain := newChain(l.sc), newChain(l.sc)
		pr := stap.NewProcessor(l.sc)
		same := true
		var dets [][]stap.Detection
		for _, raw := range l.jp.jobs[job] {
			var tracedRes, plainRes *stap.Result
			var dTraced, dPlain time.Duration
			runTraced := func() {
				l.tr.reserve(1)
				root = l.tr.begin("stap.cpi", -1, job)
				tracedRes = traced.process(raw, step)
				dTraced = l.tr.end(root)
			}
			runPlain := func() {
				t := time.Now()
				plainRes = plain.process(raw, plainStep)
				dPlain = time.Since(t)
			}
			if cpis%2 == 0 {
				runPlain()
				runTraced()
			} else {
				runTraced()
				runPlain()
			}
			overhead = append(overhead, float64(dTraced)/float64(dPlain)-1)
			tracedNs += dTraced
			plainNs += dPlain
			root = -1
			var want *stap.Result
			step("stap.serial", func() { want = pr.Process(raw) })
			for _, r := range []*stap.Result{tracedRes, plainRes} {
				same = same && sameDetections([][]stap.Detection{r.Detections}, [][]stap.Detection{want.Detections}) &&
					sameReal(r.Power, want.Power)
			}
			dets = append(dets, tracedRes.Detections)
			cpis++
		}
		l.check("kernel replay", job, same && sameDetections(dets, l.jp.refs[job]))
	}
	totals := spanTotals(l.tr.snapshot())
	for _, n := range kernelNames {
		l.res.set(n+".ns_per_cpi", "ns", float64(totals[n][0])/float64(cpis), cpis)
		l.res.set(n+".allocs_per_cpi", "count", float64(accs[n].allocs)/float64(cpis), cpis)
		l.res.set(n+".bytes_per_cpi", "B", float64(accs[n].bytes)/float64(cpis), cpis)
	}
	// The root's self time is the glue between kernels, which here
	// includes the allocation reads around each of them.
	l.res.Extra["stap.cpi.self_ns_per_cpi"] = metric{Value: float64(totals["stap.cpi"][1]) / float64(cpis), Unit: "ns", Samples: cpis}
	l.res.set("bench.trace_overhead_frac", "ratio", median(overhead), cpis)
	l.res.Extra["bench.trace_overhead.plain_ns_per_cpi"] = metric{Value: float64(plainNs) / float64(cpis), Unit: "ns", Samples: cpis}
	l.res.Extra["bench.trace_overhead.traced_ns_per_cpi"] = metric{Value: float64(tracedNs) / float64(cpis), Unit: "ns", Samples: cpis}
	return nil
}

// sameReal compares two real cubes bit for bit.
func sameReal(a, b *cube.RealCube) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// wireCodec round-trips each pooled job's serve.Request and its reference
// serve.Response through wire.WriteFrame and wire.ReadFrame.
func (l *ladder) wireCodec() error {
	var reqBytes, respBytes int64
	var reqAcc acc
	jobs := 0
	start := time.Now()
	for n := 0; n < len(l.jp.jobs) || time.Since(start) < l.share; n++ {
		j := n % len(l.jp.jobs)
		var buf bytes.Buffer
		l.tr.reserve(1)
		b0, o0 := memCount()
		s := l.tr.begin("wire.request", -1, j)
		if err := wire.WriteFrame(&buf, &serve.Request{ID: uint64(n), CPIs: l.jp.jobs[j]}); err != nil {
			return err
		}
		reqBytes += int64(buf.Len())
		var req serve.Request
		if err := wire.ReadFrame(&buf, &req); err != nil {
			return err
		}
		l.tr.end(s)
		b1, o1 := memCount()
		reqAcc.bytes += b1 - b0
		reqAcc.allocs += o1 - o0

		s = l.tr.begin("wire.response", -1, j)
		if err := wire.WriteFrame(&buf, &serve.Response{ID: uint64(n), Detections: l.jp.refs[j]}); err != nil {
			return err
		}
		respBytes += int64(buf.Len())
		var resp serve.Response
		if err := wire.ReadFrame(&buf, &resp); err != nil {
			return err
		}
		l.tr.end(s)
		l.check("wire round trip", j, sameCubes(req.CPIs, l.jp.jobs[j]) && sameDetections(resp.Detections, l.jp.refs[j]))
		jobs++
	}
	totals := spanTotals(l.tr.snapshot())
	cpis := jobs * l.w.jobCPIs
	l.res.set("wire.request.ns_per_cpi", "ns", perCPI(float64(totals["wire.request"][0]), jobs, l.w.jobCPIs), cpis)
	l.res.set("wire.request.bytes_per_cpi", "B", perCPI(float64(reqBytes), jobs, l.w.jobCPIs), cpis)
	l.res.set("wire.request.allocs_per_cpi", "count", perCPI(float64(reqAcc.allocs), jobs, l.w.jobCPIs), cpis)
	l.res.Extra["wire.request.heap_bytes_per_cpi"] = metric{Value: perCPI(float64(reqAcc.bytes), jobs, l.w.jobCPIs), Unit: "B", Samples: cpis}
	l.res.set("wire.response.ns_per_job", "ns", float64(totals["wire.response"][0])/float64(jobs), jobs)
	l.res.set("wire.response.bytes_per_job", "B", float64(respBytes)/float64(jobs), jobs)
	return nil
}

// sameCubes compares two CPI sequences sample for sample.
func sameCubes(a, b []*cube.Cube) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Axes != b[i].Axes || a[i].Dim != b[i].Dim || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for k := range a[i].Data {
			if a[i].Data[k] != b[i].Data[k] {
				return false
			}
		}
	}
	return true
}

// stopMsg ends the mp ping-pong partner.
type stopMsg struct{}

// msgs times a two-rank mp ping-pong carrying a pooled cube.
func (l *ladder) msgs() error {
	world := mp.NewWorld(2)
	c0, c1 := world.Comm(0), world.Comm(1)
	payload := l.jp.jobs[0][0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			v := c1.Recv(0, 0)
			if _, ok := v.(stopMsg); ok {
				return
			}
			c1.Send(0, 0, v)
		}
	}()
	rounds := 0
	l.tr.reserve(1)
	_, o0 := memCount()
	s := l.tr.begin("mp.sendrecv", -1, -1)
	for t := time.Now(); time.Since(t) < l.share/2; rounds += 1000 {
		for i := 0; i < 1000; i++ {
			c0.Send(1, 0, payload)
			c0.Recv(1, 0)
		}
	}
	d := l.tr.end(s)
	_, o1 := memCount()
	c0.Send(1, 0, stopMsg{})
	<-done
	msgs := 2 * rounds
	l.res.set("mp.sendrecv.ns_per_msg", "ns", float64(d.Nanoseconds())/float64(msgs), msgs)
	l.res.set("mp.sendrecv.allocs_per_msg", "count", float64(o1-o0)/float64(msgs), msgs)
	return nil
}

// taskSlug turns a pipeline task label into a metric-name part.
func taskSlug(t int) string {
	return strings.ReplaceAll(strings.ToLower(stap.TaskNames[t]), " ", "_")
}

// pipeline runs warm Stream.ProcessJob calls and reads the per-task busy
// and wait time, message counts and the eq. 1/3 gauges from the
// obs.Collector passed through StreamConfig.Obs.
func (l *ladder) pipeline() error {
	col := obs.New(pipeline.DefaultObsConfig(l.a))
	st, err := pipeline.NewStream(pipeline.StreamConfig{Scene: l.sc, Assign: l.a, Obs: col})
	if err != nil {
		return fmt.Errorf("pipeline stream: %w", err)
	}
	defer st.Close()
	warm := time.Now()
	if _, err := st.ProcessJob(l.jp.jobs[0]); err != nil {
		return fmt.Errorf("pipeline warm-up: %w", err)
	}
	// The allocation count spans the whole loop, because the workers
	// still run after a job returns, so the spans are reserved up front:
	// enough for jobs four times faster than the cold warm-up job.
	maxJobs := 2 + int(4*l.share/time.Since(warm))
	l.tr.reserve(maxJobs)
	before := col.Snapshot()
	b0, o0 := memCount()
	jobs := 0
	start := time.Now()
	for n := 0; n < maxJobs && (n < 2 || time.Since(start) < l.share); n++ {
		j := n % len(l.jp.jobs)
		s := l.tr.begin("pipeline.job", -1, j)
		dets, err := st.ProcessJob(l.jp.jobs[j])
		l.tr.end(s)
		if err != nil {
			return fmt.Errorf("pipeline job: %w", err)
		}
		l.check("pipeline", j, sameDetections(dets, l.jp.refs[j]))
		jobs++
	}
	b1, o1 := memCount()
	after := col.Snapshot()
	g := col.Gauges()
	cpis := jobs * l.w.jobCPIs
	ns := float64(spanTotals(l.tr.snapshot())["pipeline.job"][0])
	l.pipelineNsPerCPI = perCPI(ns, jobs, l.w.jobCPIs)
	l.res.set("pipeline.job.ns_per_cpi", "ns", l.pipelineNsPerCPI, cpis)
	l.res.set("pipeline.job.allocs_per_cpi", "count", perCPI(float64(o1-o0), jobs, l.w.jobCPIs), cpis)
	l.res.set("pipeline.job.bytes_per_cpi", "B", perCPI(float64(b1-b0), jobs, l.w.jobCPIs), cpis)
	l.res.set("pipeline.msgs_per_cpi", "count", perCPI(float64(after.Messages-before.Messages), jobs, l.w.jobCPIs), cpis)
	l.res.set("pipeline.bytes_sent_per_cpi", "B", perCPI(float64(after.Bytes-before.Bytes), jobs, l.w.jobCPIs), cpis)
	for t := range after.Tasks {
		var busy, wait time.Duration
		for k, wk := range after.Tasks[t].Workers {
			b := before.Tasks[t].Workers[k]
			wait += wk.Wait - b.Wait
			busy += (wk.Recv + wk.Comp + wk.Send) - (b.Recv + b.Comp + b.Send)
		}
		busy -= wait
		name := "pipeline." + taskSlug(t)
		l.res.set(name+".busy_ns_per_cpi", "ns", perCPI(float64(busy), jobs, l.w.jobCPIs), cpis)
		l.res.set(name+".wait_ns_per_cpi", "ns", perCPI(float64(wait), jobs, l.w.jobCPIs), cpis)
	}
	l.res.set("pipeline.eq1_cpi_per_s", "1/s", g.Eq1Throughput, g.WindowCPIs)
	l.res.set("pipeline.eq3_latency_ms", "ms", ms(g.Eq3Latency), g.Eq3Samples)
	return nil
}

// startNodes boots the in-process dist nodes on loopback.
func (l *ladder) startNodes() error {
	for i := 0; i < 4; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("node listen: %w", err)
		}
		node := dist.NewNode(ln, dist.NodeConfig{Secret: []byte(distSecret)})
		l.serving.Add(1)
		go func() {
			defer l.serving.Done()
			node.Serve()
		}()
		l.nodes = append(l.nodes, node)
		l.nodeAddrs = append(l.nodeAddrs, ln.Addr().String())
	}
	return nil
}

// stopNodes closes the nodes and waits for their Serve loops to return.
func (l *ladder) stopNodes() {
	for _, n := range l.nodes {
		n.Close()
	}
	l.serving.Wait()
}

// cluster is the split configuration over node pair i.
func (l *ladder) cluster(i int) (dist.ClusterConfig, error) {
	placement, err := dist.ParsePlacement(splitPlacement, 2)
	if err != nil {
		return dist.ClusterConfig{}, err
	}
	return dist.ClusterConfig{Name: "e2ebench", Nodes: l.nodeAddrs[2*i : 2*i+2], Placement: placement,
		Secret: []byte(distSecret), CPITimeout: time.Minute}, nil
}

// linkTotals sums link counters; hop selects node-to-node links only.
type linkTotals struct {
	tx, rx, hop, msgs       int64
	ser, deser, xmit, stall int64
}

// linkState reads the coordinator's links and the dist rung's nodes'
// links.
func (l *ladder) linkState(rep *dist.Replica) linkTotals {
	var t linkTotals
	add := func(ls dist.LinkStats) {
		t.ser += ls.SerNs
		t.deser += ls.DeserNs
		t.xmit += ls.XmitNs
		t.stall += ls.StallNs
	}
	for _, ls := range rep.LinkStats() {
		t.tx += ls.BytesSent
		t.rx += ls.BytesRecv
		t.msgs += ls.MsgsSent + ls.MsgsRecv
		add(ls)
	}
	for _, n := range l.nodes[:2] {
		for _, ls := range n.Snapshot().Links {
			if ls.Member != 0 { // the peer node, not the coordinator
				t.hop += ls.BytesSent
				t.msgs += ls.MsgsSent
			}
			add(ls)
		}
	}
	return t
}

// dist runs warm Replica.ProcessJob calls over the two in-process nodes
// and reads the wire counters from Replica.LinkStats and Node.Snapshot.
func (l *ladder) dist() error {
	cc, err := l.cluster(0)
	if err != nil {
		return err
	}
	cc.Scene, cc.Assign = l.sc, l.a
	rep, err := cc.Connect()
	if err != nil {
		return fmt.Errorf("dist connect: %w", err)
	}
	defer rep.Close()
	if _, err := rep.ProcessJob(l.jp.jobs[0]); err != nil {
		return fmt.Errorf("dist warm-up: %w", err)
	}
	before := l.linkState(rep)
	jobs := 0
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < l.share; n++ {
		j := n % len(l.jp.jobs)
		s := l.tr.begin("dist.job", -1, j)
		dets, err := rep.ProcessJob(l.jp.jobs[j])
		l.tr.end(s)
		if err != nil {
			return fmt.Errorf("dist job: %w", err)
		}
		l.check("dist", j, sameDetections(dets, l.jp.refs[j]))
		jobs++
	}
	after := l.linkState(rep)
	cpis := jobs * l.w.jobCPIs
	per := func(v int64) float64 { return perCPI(float64(v), jobs, l.w.jobCPIs) }
	l.distNsPerCPI = per(spanTotals(l.tr.snapshot())["dist.job"][0])
	l.res.set("dist.job.ns_per_cpi", "ns", l.distNsPerCPI, cpis)
	l.res.set("dist.wire_tax", "ratio", l.distNsPerCPI/l.pipelineNsPerCPI, cpis)
	l.res.Extra["dist.wire_tax.base_ns_per_cpi"] = metric{Value: l.pipelineNsPerCPI, Unit: "ns", Samples: cpis}
	l.res.set("dist.tx.bytes_per_cpi", "B", per(after.tx-before.tx), cpis)
	l.res.set("dist.rx.bytes_per_cpi", "B", per(after.rx-before.rx), cpis)
	l.res.set("dist.hop.bytes_per_cpi", "B", per(after.hop-before.hop), cpis)
	l.res.set("dist.msgs_per_cpi", "count", per(after.msgs-before.msgs), cpis)
	l.res.set("dist.ser_ns_per_cpi", "ns", per(after.ser-before.ser), cpis)
	l.res.set("dist.deser_ns_per_cpi", "ns", per(after.deser-before.deser), cpis)
	l.res.set("dist.xmit_ns_per_cpi", "ns", per(after.xmit-before.xmit), cpis)
	l.res.set("dist.stall_ns_per_cpi", "ns", per(after.stall-before.stall), cpis)
	return nil
}

// serve boots an in-process serve.Server with the workload's replica
// configuration and times sequential Client.Submit calls, then drives the
// workload's own closed loop against it to measure the generator's
// lateness.
func (l *ladder) serve() error {
	cfg := serve.Config{Scene: l.sc, Assign: l.a, Replicas: l.w.replicas}
	base := l.pipelineNsPerCPI
	if l.w.split {
		cc, err := l.cluster(1)
		if err != nil {
			return err
		}
		cfg.DistClusters = []dist.ClusterConfig{cc}
		base = l.distNsPerCPI
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("serve start: %w", err)
	}
	defer srv.Shutdown(context.Background())
	cl, err := serve.Dial(srv.Addr().String())
	if err != nil {
		return fmt.Errorf("serve dial: %w", err)
	}
	defer cl.Close()
	submit := func(j int) bool {
		dets, err := cl.Submit(l.jp.jobs[j])
		return err == nil && sameDetections(dets, l.jp.refs[j])
	}
	l.check("serve warm-up", 0, submit(0))

	jobs := 0
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < l.share; n++ {
		j := n % len(l.jp.jobs)
		s := l.tr.begin("serve.submit", -1, j)
		ok := submit(j)
		l.tr.end(s)
		l.check("serve", j, ok)
		jobs++
	}
	cpis := jobs * l.w.jobCPIs
	nsPerCPI := perCPI(float64(spanTotals(l.tr.snapshot())["serve.submit"][0]), jobs, l.w.jobCPIs)
	l.res.set("serve.submit.ns_per_cpi", "ns", nsPerCPI, cpis)
	l.res.set("serve.overhead_ns_per_job", "ns", (nsPerCPI-base)*float64(l.w.jobCPIs), jobs)

	// The top rung: the workload's closed loop against the server
	// through the generator's own connections, with a span per job.
	load, closeLoad, err := dialLoad(srv.Addr().String(), l.jp)
	if err != nil {
		return err
	}
	defer closeLoad()
	all := runClosed(l.w.pool, time.Now().Add(l.share), func(c, j int) int {
		s := l.tr.begin("top.job", -1, j)
		defer l.tr.end(s)
		return load(c, j)
	})
	top := summarize(all, l.w.jobCPIs)
	l.res.Attempted += top.attempted
	l.res.Failed += top.failed()
	if top.failed() > 0 {
		l.res.fail("top rung: %s", top)
	}
	l.res.set("bench.gen_late_p99_ms", "ms", percentile(top.genLateMs, 99), len(top.genLateMs))

	snap := srv.Metrics().Snapshot()
	var util float64
	for _, r := range snap.Replicas {
		util += r.Utilization
	}
	l.res.set("serve.utilization", "ratio", util/float64(len(snap.Replicas)), len(snap.Replicas))
	return nil
}
