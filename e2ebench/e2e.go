package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"pstap/internal/serve"
)

const (
	// setupLaunches is how many times one run boots the SUT to time
	// set-up; the last boot serves the measured load.
	setupLaunches = 21
	// setupTimeout bounds one boot's wait for its first OK reply.
	setupTimeout = 60 * time.Second
	// minTailBeyond is how many samples a reported tail percentile must
	// have above it.
	minTailBeyond = 10
)

// e2eUnits names every end-to-end metric with its unit.
var e2eUnits = map[string]string{
	"setup_s": "s", "cpi_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
	"latency_p99_ms": "ms", "cpu_ms_per_cpi": "ms", "rss_peak_mb": "MiB",
}

// runEndToEnd times set-up over several SUT boots, then drives the
// workload's load against the last boot for warm-up plus the measured
// window, and fills res with the end-to-end metrics. A SUT that crashes,
// fails a reply or does not shut down cleanly makes the run incorrect
// and is counted as failed; it is never dropped.
func runEndToEnd(res *result, w workload, seed int64, jp *jobPool, measure time.Duration, binDir, logDir string) error {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return fmt.Errorf("log dir: %w", err)
	}
	var setups []float64
	var s *sut
	for i := 0; i < setupLaunches; i++ {
		var d time.Duration
		var err error
		s, d, err = bootAndProbe(w, seed, jp, binDir, logDir)
		res.Attempted++
		if err != nil {
			res.Failed++
			failRun(res, setups, "boot %d: %v", i+1, err)
			return nil
		}
		setups = append(setups, d.Seconds())
		if i < setupLaunches-1 {
			if err := s.stop(); err != nil {
				res.Failed++
				res.fail("shutdown after boot %d: %v", i+1, err)
			}
		}
	}
	res.set("setup_s", "s", median(setups), len(setups))
	defer s.kill()

	sub, closeConns, err := dialLoad(s.addr, jp)
	if err != nil {
		res.Failed++
		failRun(res, setups, "%v", err)
		return nil
	}
	defer closeConns()

	t0 := time.Now().Add(time.Duration(w.warmup * float64(time.Second)))
	t1 := t0.Add(measure)
	cpu := make(chan [2]float64, 1)
	go func() {
		// A failed read means a SUT process died, which crashed()
		// reports once the load ends.
		var c [2]float64
		time.Sleep(time.Until(t0))
		c[0], _ = s.cpuMs()
		time.Sleep(time.Until(t1))
		c[1], _ = s.cpuMs()
		cpu <- c
	}()
	all := runClosed(w.pool, t1, sub)
	cpuMs := <-cpu
	st := summarize(window(all, t0, t1), w.jobCPIs)

	res.Attempted += st.attempted
	res.Failed += st.failed()
	if st.failed() > 0 {
		res.fail("measured window: %s", st)
	}
	if err := s.crashed(); err != nil {
		res.Failed++
		res.fail("SUT crashed during load: %v", err)
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		res.fail("%v", err)
	}
	closeConns()
	if err := s.stop(); err != nil {
		res.Failed++
		res.fail("final shutdown: %v", err)
	}

	lat := st.latMs
	res.set("cpi_per_s", "1/s", st.cpiPerS, st.ok)
	res.set("latency_p50_ms", "ms", percentile(lat, 50), len(lat))
	res.set("latency_p90_ms", "ms", percentile(lat, 90), len(lat))
	res.set("latency_p99_ms", "ms", percentile(lat, 99), len(lat))
	res.set("cpu_ms_per_cpi", "ms", perCPI(cpuMs[1]-cpuMs[0], st.ok, w.jobCPIs), st.ok*w.jobCPIs)
	res.set("rss_peak_mb", "MiB", rss, len(s.procs()))
	res.Extra["failed_frac"] = metric{Value: failedFrac(st.transport, st.nonOK, st.busy, st.mismatched, st.attempted),
		Unit: "ratio", Samples: st.attempted}
	res.Extra["gen_late_p50_ms"] = metric{Value: percentile(st.genLateMs, 50), Unit: "ms", Samples: len(st.genLateMs)}
	res.Extra["gen_late_p99_ms"] = metric{Value: percentile(st.genLateMs, 99), Unit: "ms", Samples: len(st.genLateMs)}
	tail := highestTail(len(lat), minTailBeyond)
	res.Extra["tail_percentile_supported"] = metric{Value: tail, Unit: "pct", Samples: len(lat)}
	if tail < 90 {
		res.note("%d latency samples: p90 has fewer than %d samples beyond it", len(lat), minTailBeyond)
	}
	return nil
}

// bootAndProbe launches the SUT and returns it with the time from launch
// to the first OK, bit-exact reply to a one-CPI probe (the first CPI of
// the first pooled job). That span covers process start, the stapnode
// boot and dist handshake, and the replica warm-up.
func bootAndProbe(w workload, seed int64, jp *jobPool, binDir, logDir string) (*sut, time.Duration, error) {
	t0 := time.Now()
	s, err := launchSUT(w, seed, binDir, logDir)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.After(setupTimeout)
	select {
	case <-s.stapd.ready: // stapd logs its scene line once it listens
	case <-s.stapd.done:
		s.kill()
		return nil, 0, fmt.Errorf("stapd exited during boot: %v", s.stapd.err)
	case <-deadline:
		s.kill()
		return nil, 0, fmt.Errorf("stapd not listening after %v", setupTimeout)
	}
	probe, ref := jp.jobs[0][:1], jp.refs[0][:1]
	for {
		if err := s.crashed(); err != nil {
			s.kill()
			return nil, 0, err
		}
		if conn, err := net.DialTimeout("tcp", s.addr, time.Second); err == nil {
			cl := serve.NewClient(conn)
			kind := submitJob(cl, probe, ref)
			cl.Close()
			switch kind {
			case kindOK:
				return s, time.Since(t0), nil
			case kindMismatch:
				s.kill()
				return nil, 0, fmt.Errorf("probe reply differs from the serial reference")
			}
		}
		select {
		case <-deadline:
			s.kill()
			return nil, 0, fmt.Errorf("no OK reply within %v of launch", setupTimeout)
		case <-time.After(time.Millisecond):
		}
	}
}

// failRun marks a run that could not be measured: it is reported, not
// dropped, with every metric present and zero where nothing was measured.
func failRun(res *result, setups []float64, format string, args ...any) {
	res.fail(format, args...)
	for name, unit := range e2eUnits {
		res.set(name, unit, 0, 0)
	}
	res.set("setup_s", "s", median(setups), len(setups))
}
