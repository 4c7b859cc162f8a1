package overload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/vector"
)

// TestThresholdRules runs the edge values of every float threshold an
// operator can set through the rule that guards it: core's T and
// TQuantile through the exported Config.Validate, and FailureRatio
// through setDefaults, which is why the table lives in this package.
// A value outside its range, NaN and the infinities included, must be
// refused (core) or replaced by the default (overload); a value inside
// it must pass unchanged.
func TestThresholdRules(t *testing.T) {
	ds, err := vector.FromRows([][]float64{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	accepts := map[string]func(v float64) bool{
		"T": func(v float64) bool {
			return core.Config{K: 1, T: v}.Validate(ds) == nil
		},
		"TQuantile": func(v float64) bool {
			return core.Config{K: 1, TQuantile: v}.Validate(ds) == nil
		},
		"FailureRatio": func(v float64) bool {
			c := Config{FailureRatio: v}
			c.setDefaults()
			if !(c.FailureRatio > 0 && c.FailureRatio <= 1) {
				t.Errorf("FailureRatio %v defaulted to %v, outside (0,1]", v, c.FailureRatio)
			}
			return c.FailureRatio == v
		},
	}
	nan, inf := math.NaN(), math.Inf(1)
	below1 := math.Nextafter(1, 0)
	cases := []struct {
		field string
		v     float64
		ok    bool
	}{
		{"T", nan, false},
		{"T", inf, false},
		{"T", -inf, false},
		{"T", 0, false},
		{"T", -1, false},
		{"T", math.SmallestNonzeroFloat64, true},
		{"T", math.MaxFloat64, true},

		{"TQuantile", nan, false},
		{"TQuantile", inf, false},
		{"TQuantile", -inf, false},
		{"TQuantile", 0, false}, // unset, and T is unset too
		{"TQuantile", -0.5, false},
		{"TQuantile", 1, false},
		{"TQuantile", math.SmallestNonzeroFloat64, true},
		{"TQuantile", below1, true},

		{"FailureRatio", nan, false},
		{"FailureRatio", inf, false},
		{"FailureRatio", -inf, false},
		{"FailureRatio", 0, false},
		{"FailureRatio", -0.5, false},
		{"FailureRatio", math.Nextafter(1, 2), false},
		{"FailureRatio", math.SmallestNonzeroFloat64, true},
		{"FailureRatio", 1, true},
	}
	for _, tc := range cases {
		if got := accepts[tc.field](tc.v); got != tc.ok {
			t.Errorf("%s = %v: accepted %v, want %v", tc.field, tc.v, got, tc.ok)
		}
	}
}
