package main

import "math"

// ladder is a fixed geometric rate ladder: step k offers
// Base*Ratio^k requests per second, for k = 0..Top.
type ladder struct {
	Base, Ratio float64
	Top         int
	// Stride is how many steps the coarse climb skips at a time.
	Stride int
}

func (l ladder) rate(k int) float64 { return l.Base * math.Pow(l.Ratio, float64(k)) }

// searchKnee returns the highest step that passes, assuming steps pass
// below the knee and fail above it. From step start it walks Stride
// steps at a time, up while steps pass or down while they fail, then
// bisects between the highest pass and the lowest failure seen, so it
// runs a handful of steps however far the knee is from step 0. It
// returns -1 when step 0 fails, and every step it ran, in order.
func searchKnee(l ladder, start int, pass func(k int) bool) (knee int, tried []int) {
	try := func(k int) bool {
		tried = append(tried, k)
		return pass(k)
	}
	start = min(max(start, 0), l.Top)
	lo, hi := -1, -1 // highest pass, lowest failure (-1: none yet)
	if try(start) {
		lo = start
		for hi < 0 {
			if lo == l.Top {
				return lo, tried
			}
			k := min(lo+l.Stride, l.Top)
			if try(k) {
				lo = k
			} else {
				hi = k
			}
		}
	} else {
		hi = start
		for lo < 0 {
			if hi == 0 {
				return -1, tried
			}
			k := max(hi-l.Stride, 0)
			if try(k) {
				lo = k
			} else {
				hi = k
			}
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, tried
}

// startStep is the highest step at or below rate, or 0.
func (l ladder) startStep(rate float64) int {
	k := 0
	for k < l.Top && l.rate(k+1) <= rate {
		k++
	}
	return k
}
