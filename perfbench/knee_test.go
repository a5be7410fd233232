package main

import "testing"

// TestSearchKneeSyntheticCurve runs the search over a synthetic p99
// curve: flat 2ms until 1000/s, then queueing that crosses the 20ms
// limit between the rungs at 1338/s (step 5) and 1419/s (step 6).
func TestSearchKneeSyntheticCurve(t *testing.T) {
	l := ladder{Base: 1000, Ratio: 1.06, Top: 30, Stride: 2}
	p99 := func(rate float64) float64 {
		if rate <= 1000 {
			return 2
		}
		return 2 + (rate-1000)*0.05 // 18ms over the flat part at 1360/s
	}
	pass := func(k int) bool { return p99(l.rate(k)) <= 20 }
	for _, start := range []int{0, 3, 5, 6, 12, 30} {
		knee, tried := searchKnee(l, start, pass)
		if knee != 5 {
			t.Errorf("start %d: knee step %d (%.0f/s), want 5; tried %v", start, knee, l.rate(knee), tried)
		}
		if start >= 3 && start <= 6 && len(tried) > 4 {
			t.Errorf("start %d, next to the knee: %d steps tried %v", start, len(tried), tried)
		}
	}
	if knee, _ := searchKnee(l, 4, func(int) bool { return false }); knee != -1 {
		t.Errorf("nothing passes: knee %d, want -1", knee)
	}
	if knee, _ := searchKnee(l, 4, func(int) bool { return true }); knee != l.Top {
		t.Errorf("everything passes: knee %d, want the top step %d", knee, l.Top)
	}
	if k := l.startStep(1340); k != 5 {
		t.Errorf("startStep(1340) = %d, want 5", k)
	}
}
