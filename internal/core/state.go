package core

import "fmt"

// State is the outcome of preprocessing: the resolved threshold and
// the learned priors. internal/snapshot persists it inside a .snap
// file, which lets a service restart (or a different process) answer
// queries without re-running the quantile resolution and the §3.2
// learning phase, which dominate startup cost on large datasets.
type State struct {
	// Version guards the format for forward compatibility.
	Version int
	// Dim is the dataset dimensionality the priors were learned for.
	Dim int
	// K and Metric echo the OD configuration so mismatched reuse is
	// rejected.
	K      int
	Metric string
	// Threshold is the resolved T.
	Threshold float64
	// PUp/PDown are the query priors (index 0 unused).
	PUp   []float64
	PDown []float64
	// Learned records whether the priors came from learning (vs
	// uniform).
	Learned bool
}

const stateVersion = 1

// StateVersion is the current State format version — exported so
// other serialization layers (internal/snapshot) can mint State
// values ImportState will accept.
const StateVersion = stateVersion

// ExportState captures the preprocessed state. It fails if Preprocess
// has not run yet.
func (m *Miner) ExportState() (*State, error) {
	if !m.preprocessed {
		return nil, fmt.Errorf("core: ExportState before Preprocess")
	}
	return &State{
		Version:   stateVersion,
		Dim:       m.ds.Dim(),
		K:         m.cfg.K,
		Metric:    m.cfg.Metric.String(),
		Threshold: m.threshold,
		PUp:       append([]float64(nil), m.priors.PUp...),
		PDown:     append([]float64(nil), m.priors.PDown...),
		Learned:   m.learned,
	}, nil
}

// ImportState installs a previously exported state, skipping
// threshold resolution and learning on the next query. The state must
// match the miner's dataset dimensionality, K and metric.
func (m *Miner) ImportState(s *State) error {
	if s == nil {
		return fmt.Errorf("core: nil state")
	}
	if s.Version != stateVersion {
		return fmt.Errorf("core: state version %d, want %d", s.Version, stateVersion)
	}
	if s.Dim != m.ds.Dim() {
		return fmt.Errorf("core: state for d=%d, dataset has d=%d", s.Dim, m.ds.Dim())
	}
	if s.K != m.cfg.K {
		return fmt.Errorf("core: state for K=%d, miner configured with K=%d", s.K, m.cfg.K)
	}
	if s.Metric != m.cfg.Metric.String() {
		return fmt.Errorf("core: state for metric %s, miner uses %s", s.Metric, m.cfg.Metric)
	}
	if s.Threshold <= 0 {
		return fmt.Errorf("core: state threshold %v must be positive", s.Threshold)
	}
	priors := Priors{
		PUp:   append([]float64(nil), s.PUp...),
		PDown: append([]float64(nil), s.PDown...),
	}
	if err := priors.Validate(); err != nil {
		return fmt.Errorf("core: state priors: %w", err)
	}
	if priors.Dim() != s.Dim {
		return fmt.Errorf("core: state priors cover %d layers, want %d", priors.Dim(), s.Dim)
	}
	m.threshold = s.Threshold
	m.priors = priors
	m.learned = s.Learned
	m.preprocessed = true
	return nil
}
