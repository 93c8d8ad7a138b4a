package main

import (
	"math"
	"testing"
	"time"

	"pstap/internal/stap"
)

func testTime() time.Time { return time.Unix(1000, 0) }

func ms2d(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestPoolSameSeedSameBytes(t *testing.T) {
	w, _ := findWorkload("split-small")
	w.pool = 3
	a, err := buildPool(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildPool(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildPool(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() != b.digest() {
		t.Error("same seed gave different job pools")
	}
	if a.digest() == c.digest() {
		t.Error("different seeds gave the same job pool")
	}
	for j := range a.jobs {
		if !sameCubes(a.jobs[j], b.jobs[j]) || !sameDetections(a.refs[j], b.refs[j]) {
			t.Errorf("job %d differs between same-seed pools", j)
		}
	}
}

func TestPoolReferencesHoldDetections(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 5; seed++ {
			jp, err := buildPool(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			for j, ref := range jp.refs {
				n := 0
				for _, d := range ref {
					n += len(d)
				}
				if n == 0 {
					t.Errorf("%s seed %d job %d: empty reference", w.name, seed, j)
				}
			}
		}
	}
}

func TestSameDetectionsIsBitExact(t *testing.T) {
	w, _ := findWorkload("split-small")
	w.pool = 1
	jp, err := buildPool(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := jp.refs[0]
	var cpi int
	for cpi = range ref {
		if len(ref[cpi]) > 0 {
			break
		}
	}
	mut := cloneDets(ref)
	mut[cpi][0].Power = math.Nextafter(mut[cpi][0].Power, math.Inf(1))
	if sameDetections(mut, ref) {
		t.Error("a one-ulp power change passed the check")
	}
	if !sameDetections(cloneDets(ref), ref) {
		t.Error("a copy failed the check")
	}
	if sameDetections(ref[:len(ref)-1], ref) {
		t.Error("a short reply passed the check")
	}
}

func cloneDets(d [][]stap.Detection) [][]stap.Detection {
	out := make([][]stap.Detection, len(d))
	for i := range d {
		out[i] = append([]stap.Detection(nil), d[i]...)
	}
	return out
}
