package model

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"ssdfail/internal/dataset"
)

// predictor_v1.ssdp pins the SSDP predictor format as it was first
// written: a 4-tree, depth-5 forest (seed 58, lookahead 3) trained on
// core.GenerateStudy(58, 30) and saved by Encode. predictor_v1.scores holds
// eight of that study's feature rows with the score the forest gave
// each. A format change adds a fixture; none is ever edited.
const (
	predictorFixture = "testdata/predictor_v1.ssdp"
	scoresFixture    = "testdata/predictor_v1.scores"
)

// TestPredictorFixture decodes the SSDP fixture, re-encodes it byte for
// byte, and scores the pinned rows bit for bit.
func TestPredictorFixture(t *testing.T) {
	want, err := os.ReadFile(predictorFixture)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePredictor(want)
	if err != nil {
		t.Fatal(err)
	}
	if p.Lookahead != 3 || p.FeatureWidth() != dataset.NumFeatures {
		t.Fatalf("decoded lookahead %d, width %d; want 3 and %d", p.Lookahead, p.FeatureWidth(), dataset.NumFeatures)
	}
	got, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-encoded predictor differs from the fixture")
	}

	f, err := os.Open(scoresFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := dataset.Matrix{}
	var scores []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != dataset.NumFeatures+1 {
			t.Fatalf("scores line has %d fields, want %d", len(fields), dataset.NumFeatures+1)
		}
		for i, s := range fields {
			bits, err := strconv.ParseUint(s, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			if i < dataset.NumFeatures {
				m.X = append(m.X, math.Float64frombits(bits))
			} else {
				m.Y = append(m.Y, 0)
				scores = append(scores, math.Float64frombits(bits))
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(scores) == 0 {
		t.Fatal("no scored rows in the fixture")
	}
	out := make([]float64, m.Len())
	p.ScoreMatrix(&m, out)
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(scores[i]) {
			t.Errorf("row %d: score %v, fixture %v", i, out[i], scores[i])
		}
	}
}
