package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/vector"
)

// oracle answers queries in-process with the same miner hosserve
// builds from the same rows and configuration. Answers must agree
// exactly: same minimal subspaces, same is_outlier, same threshold bits.
type oracle struct {
	m    *core.Miner
	eval *od.Evaluator
}

func newOracle(ds *vector.Dataset, w *workload) (*oracle, error) {
	m, err := core.NewMiner(ds, w.minerConfig(ds.N()))
	if err != nil {
		return nil, err
	}
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		return nil, err
	}
	return &oracle{m: m, eval: eval}, nil
}

// answer is the part of a /query answer (or /batch item) the oracle
// checks.
type answer struct {
	Threshold float64 `json:"threshold"`
	IsOutlier bool    `json:"is_outlier"`
	Minimal   [][]int `json:"minimal"`
	Error     string  `json:"error"`
}

// expect computes the oracle's answer for a dataset row (exclude ≥ 0)
// or an ad-hoc point (exclude = -1).
func (o *oracle) expect(point []float64, exclude int) (answer, error) {
	res, err := o.m.QueryWith(o.eval, point, exclude)
	if err != nil {
		return answer{}, err
	}
	return answerOf(res), nil
}

// answerOf is the checked part of a core result.
func answerOf(res *core.QueryResult) answer {
	a := answer{Threshold: res.Threshold, IsOutlier: res.IsOutlierAnywhere, Minimal: make([][]int, len(res.Minimal))}
	for i, m := range res.Minimal {
		a.Minimal[i] = m.Dims()
	}
	return a
}

func (o *oracle) expectRow(idx int) (answer, error) {
	if idx < 0 || idx >= o.m.Dataset().N() {
		return answer{}, fmt.Errorf("row %d out of range", idx)
	}
	return o.expect(o.m.Dataset().Point(idx), idx)
}

// diff describes how got differs from want ("" when they agree).
// threshold is compared separately for /batch, where it is per batch.
func diff(got, want answer, threshold float64) string {
	switch {
	case got.Error != "":
		return "item error: " + got.Error
	case math.Float64bits(threshold) != math.Float64bits(want.Threshold):
		return fmt.Sprintf("threshold %v, want %v", threshold, want.Threshold)
	case got.IsOutlier != want.IsOutlier:
		return fmt.Sprintf("is_outlier %v, want %v", got.IsOutlier, want.IsOutlier)
	case !slices.EqualFunc(got.Minimal, want.Minimal, slices.Equal[[]int]):
		return fmt.Sprintf("minimal %v, want %v", got.Minimal, want.Minimal)
	}
	return ""
}

// checkQuery compares one /query answer for row idx.
func (o *oracle) checkQuery(idx int, body []byte) error {
	var got answer
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("query %d: decoding answer: %w", idx, err)
	}
	want, err := o.expectRow(idx)
	if err != nil {
		return err
	}
	if d := diff(got, want, got.Threshold); d != "" {
		return fmt.Errorf("query %d: %s", idx, d)
	}
	return nil
}

// checkBatch compares every item of one /batch answer.
func (o *oracle) checkBatch(points [][]float64, body []byte) []error {
	var got struct {
		Threshold float64  `json:"threshold"`
		Results   []answer `json:"results"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return []error{fmt.Errorf("batch: decoding answer: %w", err)}
	}
	if len(got.Results) != len(points) {
		return []error{fmt.Errorf("batch: %d results for %d items", len(got.Results), len(points))}
	}
	var errs []error
	for i, p := range points {
		want, err := o.expect(p, -1)
		if err != nil {
			return []error{err}
		}
		if d := diff(got.Results[i], want, got.Threshold); d != "" {
			errs = append(errs, fmt.Errorf("batch item %d: %s", i, d))
		}
	}
	return errs
}

// checkPre runs the oracle over the pre-phase answers and counts every
// mismatch as a failed request.
func (o *oracle) checkPre(in *inputs, pre []answered, f *failures) {
	checkedQueries := 0
	for _, a := range pre {
		switch a.req.kind {
		case opQuery:
			if checkedQueries == oracleQueries {
				continue
			}
			checkedQueries++
			if err := o.checkQuery(a.req.index, a.body); err != nil {
				f.fail("oracle: " + err.Error())
			}
		case opBatch:
			if errs := o.checkBatch(in.batchItems(a.req.batch), a.body); len(errs) > 0 {
				f.fail(fmt.Sprintf("oracle: %v (%d of the batch's items wrong)", errs[0], len(errs)))
			}
		}
	}
}
