package stap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pstap/internal/linalg"
	"pstap/internal/radar"
)

// The bit digests pin the exact output bits of the weight kernels and the
// serial chain: SHA-256 over every float64 the weight states and
// Processor.Process produce for the default scene (seed 1) over eight
// CPIs. Any change to the arithmetic — operation order, a fused multiply,
// a skipped term that was not an exact zero — changes a digest. Refresh
// with `go test ./internal/stap -run TestBitDigest -update` only for a
// change that is meant to move the numbers.

var updateDigest = flag.Bool("update", false, "rewrite testdata/bitdigest.json from the current code")

const digestCPIs = 8

var digestFile = filepath.Join("testdata", "bitdigest.json")

// digestSizes are the scenes the digests cover.
var digestSizes = map[string]radar.Params{"small": radar.Small(), "medium": radar.Medium()}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashMatrix(h hash.Hash, m *linalg.Matrix) {
	hashFloat(h, float64(m.Rows))
	hashFloat(h, float64(m.Cols))
	for _, v := range m.Data {
		hashFloat(h, real(v))
		hashFloat(h, imag(v))
	}
}

// bitDigests runs the weight states and the serial processor over the
// scene's first digestCPIs CPIs and returns one hex digest per output.
func bitDigests(p radar.Params) map[string]string {
	sc := radar.DefaultScene(p)
	sc.Seed = 1
	beamAz := sc.BeamAzimuths()
	easy := NewEasyWeightState(p, beamAz)
	hard := NewHardWeightState(p, beamAz)
	full := NewHardWeightFullState(p, beamAz)
	pr := NewProcessor(sc)
	he, hh, hf, hd := sha256.New(), sha256.New(), sha256.New(), sha256.New()
	for i := 0; i < digestCPIs; i++ {
		res := pr.Process(sc.GenerateCPI(i))
		for _, d := range res.Detections {
			hashFloat(hd, float64(d.Range))
			hashFloat(hd, float64(d.DopplerBin))
			hashFloat(hd, float64(d.Beam))
			hashFloat(hd, d.Power)
			hashFloat(hd, d.Threshold)
		}
		easy.Observe(res.Doppler)
		for _, w := range easy.Compute() {
			hashMatrix(he, w)
		}
		hard.Observe(res.Doppler)
		for _, seg := range hard.Compute() {
			for _, w := range seg {
				hashMatrix(hh, w)
			}
		}
		full.Observe(res.Doppler)
		ws, err := full.Compute()
		if err != nil {
			panic(err)
		}
		for _, seg := range ws {
			for _, w := range seg {
				hashMatrix(hf, w)
			}
		}
	}
	return map[string]string{
		"easy_weights":      hex.EncodeToString(he.Sum(nil)),
		"hard_weights":      hex.EncodeToString(hh.Sum(nil)),
		"hard_full_weights": hex.EncodeToString(hf.Sum(nil)),
		"detections":        hex.EncodeToString(hd.Sum(nil)),
	}
}

func TestBitDigest(t *testing.T) {
	got := map[string]map[string]string{}
	for name, p := range digestSizes {
		got[name] = bitDigests(p)
	}
	if *updateDigest {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name := range digestSizes {
		for key, w := range want[name] {
			if got[name][key] != w {
				t.Errorf("%s %s: digest %s, want %s (output bits changed)", name, key, got[name][key], w)
			}
		}
		if len(want[name]) != len(got[name]) {
			t.Errorf("%s: %d digests pinned, %d computed", name, len(want[name]), len(got[name]))
		}
	}
}
