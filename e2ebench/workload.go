package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"pstap/internal/cube"
	"pstap/internal/pipeline"
	"pstap/internal/radar"
	"pstap/internal/serve"
	"pstap/internal/stap"
	"pstap/internal/wire"
)

// workload is one traffic mix against stapd: the scene, the server's
// replica configuration and the job shape. Every workload uses the
// assignment in nodes, the placement in splitPlacement when it splits,
// and a closed loop over conns client connections.
type workload struct {
	name     string
	size     string // stapd -size
	replicas int    // stapd -replicas: in-process replicas
	split    bool   // one dist slot over two stapnode processes
	jobCPIs  int
	pool     int     // distinct pre-generated jobs
	warmup   float64 // seconds of load before the measured window
}

const (
	// nodes is stapd -nodes: the workers per task of each replica.
	nodes = "2,1,2,1,1,2,1"
	// splitPlacement puts tasks 0-2 on the first stapnode and 3-6 on
	// the second.
	splitPlacement = "0-2/3-6"
	// conns is the generator's client connection count.
	conns = 2
)

// workloads are the traffic mixes BENCHMARK.json lists.
var workloads = []workload{
	{name: "track-medium", size: "medium", replicas: 1, jobCPIs: 8, pool: 4, warmup: 2},
	{name: "split-small", size: "small", replicas: 0, split: true, jobCPIs: 4, pool: 8, warmup: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) params() radar.Params {
	if w.size == "medium" {
		return radar.Medium()
	}
	return radar.Small()
}

func (w workload) scene(seed int64) *radar.Scene {
	sc := radar.DefaultScene(w.params())
	sc.Seed = seed
	return sc
}

// assignment parses nodes.
func assignment() (pipeline.Assignment, error) {
	var n [pipeline.NumTasks]int
	if _, err := fmt.Sscanf(nodes, "%d,%d,%d,%d,%d,%d,%d", &n[0], &n[1], &n[2], &n[3], &n[4], &n[5], &n[6]); err != nil {
		return pipeline.Assignment{}, fmt.Errorf("nodes %q: %w", nodes, err)
	}
	return pipeline.Assignment(n), nil
}

// jobPool holds the workload's pre-generated jobs, each job's request
// frame as the wire carries it, and the jobs' serial reference
// detections.
type jobPool struct {
	jobs   [][]*cube.Cube
	frames [][]byte
	refs   [][][]stap.Detection
}

// frameID is the request ID pre-encoded in job j's frame.
func frameID(j int) uint64 { return uint64(j) + 1 }

// buildPool synthesizes the workload's jobs from the seed, encodes their
// request frames once, and computes
// each job's reference detections with a fresh serial processor, as the
// server does at every job boundary. Every job's reference must hold at
// least one detection, so that an empty reply cannot pass the check.
func buildPool(w workload, seed int64) (*jobPool, error) {
	sc := w.scene(seed)
	jp := &jobPool{}
	for i := 0; i < w.pool; i++ {
		var job []*cube.Cube
		for k := 0; k < w.jobCPIs; k++ {
			job = append(job, sc.GenerateCPI(i*w.jobCPIs+k))
		}
		pr := stap.NewProcessor(sc)
		var ref [][]stap.Detection
		found := 0
		for _, c := range job {
			dets := pr.Process(c).Detections
			found += len(dets)
			ref = append(ref, dets)
		}
		if found == 0 {
			return nil, fmt.Errorf("workload %s seed %d: job %d has no reference detections", w.name, seed, i)
		}
		var frame bytes.Buffer
		if err := wire.WriteFrame(&frame, &serve.Request{ID: frameID(i), CPIs: job}); err != nil {
			return nil, fmt.Errorf("encode job %d: %w", i, err)
		}
		jp.jobs = append(jp.jobs, job)
		jp.frames = append(jp.frames, frame.Bytes())
		jp.refs = append(jp.refs, ref)
	}
	return jp, nil
}

// digest is a SHA-256 over every sample of every pooled cube, in job
// order: the same seed must give the same digest.
func (jp *jobPool) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, job := range jp.jobs {
		for _, c := range job {
			for _, v := range c.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(real(v)))
				h.Write(b[:])
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(imag(v)))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameDetections compares two per-CPI detection reports bit for bit,
// including the floating-point power and threshold.
func sameDetections(got, want [][]stap.Detection) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, b := range want[i] {
			a := got[i][j]
			if a.Range != b.Range || a.DopplerBin != b.DopplerBin || a.Beam != b.Beam ||
				math.Float64bits(a.Power) != math.Float64bits(b.Power) ||
				math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
				return false
			}
		}
	}
	return true
}
