// Package zoo is the simulator's policy vocabulary: the one place a policy
// name becomes a fresh simulation target. The facade's run path (RunSpec
// policies, bandit arms, sampled windows), cmd/morphsim's -policy and
// -bandit-arms, and the experiment drivers all build targets here, so every
// entry point accepts exactly the same names.
package zoo

import (
	"fmt"
	"strings"

	"morphcache/internal/baselines/dsr"
	"morphcache/internal/baselines/pipp"
	"morphcache/internal/core"
	"morphcache/internal/hierarchy"
	"morphcache/internal/sim"
	"morphcache/internal/topology"
)

// Target builds a fresh target for the named policy on a machine with
// parameters p. morph configures the MorphCache controller of the "morph*"
// policies; the variants adjust one field of it. The names are:
//
//	"(x:y:z)", "x:y:z"          a static topology with the paper's idealized
//	                            latencies (remote-hit charging off)
//	"morph"                     MorphCache, starting all-private (§2.2) with
//	                            remote-hit charging on
//	"morph-nodegrade"           MorphCache with graceful degradation off (the
//	                            fault-experiment strawman)
//	"morph-qos"                 MorphCache with the QoS extension
//	"morph-split-aggressive"    MorphCache with the aggressive conflict policy
//	"morph-arbitrary"           MorphCache with arbitrary group sizes
//	"morph-nonneighbor"         MorphCache with non-neighbor, arbitrary-size
//	                            groups
//	"pipp", "dsr"               the PIPP and DSR baselines
//
// Every call returns a target that shares nothing mutable with any other,
// so windows and batch jobs all start from the state a full run starts from.
func Target(p hierarchy.Params, morph core.Options, name string) (sim.Target, error) {
	switch name {
	case "pipp":
		return pipp.New(p, pipp.DefaultOptions()), nil
	case "dsr":
		return dsr.New(p, dsr.DefaultOptions()), nil
	}
	if Static(name) {
		topo, err := topology.FromSpec(name, p.Cores)
		if err != nil {
			return nil, err
		}
		p.ChargeRemote = false
		sys, err := hierarchy.New(p, topo)
		if err != nil {
			return nil, err
		}
		return &sim.HierarchyTarget{Sys: sys, Policy: sim.NopPolicy{Label: name}}, nil
	}
	degrade := true
	switch name {
	case "morph":
	case "morph-nodegrade":
		degrade = false
	case "morph-qos":
		morph.QoS = true
	case "morph-split-aggressive":
		morph.Conflict = core.SplitAggressive
	case "morph-arbitrary":
		morph.AllowArbitrarySizes = true
	case "morph-nonneighbor":
		morph.AllowNonNeighbors = true
		morph.AllowArbitrarySizes = true
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
	p.ChargeRemote = true
	sys, err := hierarchy.New(p, topology.AllPrivate(p.Cores))
	if err != nil {
		return nil, err
	}
	ctrl := core.New(morph)
	ctrl.SetDegradation(degrade)
	return &sim.HierarchyTarget{Sys: sys, Policy: ctrl}, nil
}

// Static reports whether name is spelled as a static topology, "(x:y:z)" or
// "x:y:z". Whether the spec fits a given machine is Target's call.
func Static(name string) bool {
	return strings.HasPrefix(name, "(") || strings.Contains(name, ":")
}
