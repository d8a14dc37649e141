package main

import "morphcache/internal/sampled"

// sampledOptions assembles the sampling parameters from the -sampled-* flag
// values: the defaults of DESIGN.md §13, with any explicitly set flag
// overriding its field. A warmup flag of -1 keeps the default; 0 disables
// window warmup.
func sampledOptions(phases, warmup int, window uint64, refs int) sampled.Options {
	o := sampled.Defaults()
	if phases > 0 {
		o.MaxPhases = phases
	}
	switch {
	case warmup > 0:
		o.WindowWarmup = warmup
	case warmup == 0:
		o.WindowWarmup = sampled.NoWindowWarmup
	}
	if window > 0 {
		o.WindowCycles = window
	}
	if refs > 0 {
		o.ProfileRefs = refs
	}
	return o
}
