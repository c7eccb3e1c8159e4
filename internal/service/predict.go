package service

import (
	"context"
	"fmt"

	"doall/internal/scenario"
	"doall/internal/sim"
	"doall/internal/twin"
)

// The predict plane: POST /v1/predict answers "what would this cell
// cost?" queries. When the daemon carries a calibrated analytical twin
// and the query lands inside its calibrated envelope with a tight
// confidence band, the answer is a model evaluation — microseconds, no
// engine involved. Otherwise the daemon falls back to one real bounded
// simulation of the queried cell on a dedicated predict engine, so the
// endpoint never lies outside the twin's evidence; the response's mode
// field and the doalld_twin_predictions_total{mode} counters make the
// split observable.

// defaultTwinMaxBandRatio is the widest Hi/Lo confidence ratio the
// daemon will serve analytically; above it the model's own uncertainty
// says a real run is worth the cost.
const defaultTwinMaxBandRatio = 8.0

// PredictResult is the POST /v1/predict response: the prediction plus
// how it was produced ("twin" = analytical model, "fallback" = one real
// bounded simulation).
type PredictResult struct {
	Mode       string          `json:"mode"`
	Prediction twin.Prediction `json:"prediction"`
}

// Predict answers one query, preferring the twin and falling back to a
// real bounded simulation when the twin cannot vouch for the shape: no
// twin loaded, no model for the (algorithm, adversary family), outside
// the calibrated envelope, or a confidence band wider than the
// ratio defaultTwinMaxBandRatio.
func (s *Service) Predict(ctx context.Context, q twin.Query) (PredictResult, error) {
	// Scenario.Validate would silently default a degenerate shape; a
	// predict query must mean exactly the shape it names.
	if q.P < 1 || q.T < 1 || q.D < 1 || (q.Q != 0 && q.Q < 2) {
		return PredictResult{}, fmt.Errorf("service: predict: bad shape p=%d t=%d d=%d q=%d (want p,t,d ≥ 1 and q = 0 or ≥ 2)",
			q.P, q.T, q.D, q.Q)
	}
	if tw := s.cfg.Twin; tw != nil {
		pred, err := tw.Predict(q)
		if err == nil && pred.InEnvelope && pred.BandRatio <= defaultTwinMaxBandRatio {
			s.metrics.twinPredicts.Add(1)
			return PredictResult{Mode: "twin", Prediction: pred}, nil
		}
		// An unknown algorithm/family or out-of-coverage shape is not an
		// error yet: the registries may still know how to simulate it.
	}
	pred, err := s.predictBySimulation(ctx, q)
	if err != nil {
		return PredictResult{}, err
	}
	s.metrics.twinFallbacks.Add(1)
	return PredictResult{Mode: "fallback", Prediction: pred}, nil
}

// predictBySimulation runs the queried cell once, bounded by the
// daemon's default timeout, on the dedicated predict engine.
func (s *Service) predictBySimulation(ctx context.Context, q twin.Query) (twin.Prediction, error) {
	sc := scenario.Scenario{
		Algorithm: q.Algo,
		Adversary: q.Adversary,
		P:         q.P,
		T:         q.T,
		D:         q.D,
		Q:         q.Q,
		Seed:      scenario.CellSeed(0, q.Algo, q.P, q.T, q.D),
		Shards:    s.cfg.Shards,
	}
	if err := sc.Validate(); err != nil {
		return twin.Prediction{}, err
	}
	if s.cfg.MaxMem > 0 {
		est := scenario.EstimateSweepBytes(scenario.SweepConfig{
			Algos: []string{q.Algo}, Ps: []int{q.P}, Ts: []int{q.T}, Ds: []int64{q.D},
			Adversary: q.Adversary, Q: q.Q, Workers: 1,
		})
		if est > s.cfg.MaxMem {
			return twin.Prediction{}, fmt.Errorf("%w: predict fallback estimated %d bytes > budget %d",
				ErrOverBudget, est, s.cfg.MaxMem)
		}
	}
	if s.cfg.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
	}

	s.predictMu.Lock()
	defer s.predictMu.Unlock()
	// Re-check shutdown under the predict lock: Close() closes the predict
	// engine under this same lock, so a predict that wins the lock first
	// completes and one that loses sees closing.
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return twin.Prediction{}, ErrDraining
	}
	if s.predictEng == nil {
		s.predictEng = sim.NewEngine()
	}
	s.predictSims.Add(1)
	cell, _ := scenario.RunCellOn(ctx, s.predictEng, sc, 1, false)
	if cell.Err != "" {
		return twin.Prediction{}, fmt.Errorf("service: predict fallback simulation: %s", cell.Err)
	}
	// A measured cell is exact: point estimate with a collapsed band.
	return twin.Prediction{
		Algo:       q.Algo,
		Family:     twin.Family(q.Adversary),
		Work:       cell.Work,
		Messages:   cell.Messages,
		SolvedAt:   cell.SolvedAt,
		WorkLo:     cell.Work,
		WorkHi:     cell.Work,
		MessagesLo: cell.Messages,
		MessagesHi: cell.Messages,
		SolvedAtLo: cell.SolvedAt,
		SolvedAtHi: cell.SolvedAt,
		BandRatio:  1,
	}, nil
}

// PredictSimRuns reports how many fallback simulations the predict
// plane has executed — the "in-envelope answers touch no engine"
// contract is pinned by tests reading this before and after.
func (s *Service) PredictSimRuns() int64 {
	return s.predictSims.Load()
}
