package main

import (
	"testing"

	informer "github.com/informing-observers/informer"
)

// TestBestDimensionTieBreak pins the label for tied top scores: the
// dimension first in enum order wins, whatever order the score map
// iterates in.
func TestBestDimensionTieBreak(t *testing.T) {
	a := &informer.Assessment{DimensionScores: map[informer.Dimension]float64{
		informer.Authority:        1,
		informer.Interpretability: 1,
		informer.Completeness:     1,
		informer.Accuracy:         0.5,
		informer.Time:             0.99,
	}}
	for i := 0; i < 100; i++ {
		if got, want := bestDimension(a), "completeness (1.00)"; got != want {
			t.Fatalf("bestDimension = %q, want %q", got, want)
		}
	}
	single := &informer.Assessment{DimensionScores: map[informer.Dimension]float64{informer.Time: 0.25}}
	if got, want := bestDimension(single), "time (0.25)"; got != want {
		t.Errorf("bestDimension = %q, want %q", got, want)
	}
}
