package benchgate

import "testing"

func TestVerdict(t *testing.T) {
	cases := []struct {
		name   string
		xs     []float64
		limit  float64
		median float64
		ok     bool
	}{
		{"ratio within tolerance", []float64{1.31, 0.88, 1.05, 1.02, 1.09}, 1 + 0.10, 1.05, true},
		{"ratio just over tolerance", []float64{1.2, 1.101, 0.9}, 1 + 0.10, 1.101, false},
		{"speed-up demand met", []float64{0.45, 0.52, 0.48}, 1 - 0.5, 0.48, true},
		{"speed-up demand missed", []float64{0.45, 0.52, 0.51}, 1 - 0.5, 0.51, false},
		{"absolute ceiling", []float64{24e6, 26e6, 25.5e6}, 25e6, 25.5e6, false},
		{"absolute ceiling met", []float64{1.6e6, 26e6, 1.5e6}, 25e6, 1.6e6, true},
		{"even round count", []float64{1.3, 1.0, 1.2, 1.0}, 1 + 0.10, 1.1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, ok := Verdict(c.xs, c.limit)
			if m != c.median || ok != c.ok {
				t.Errorf("Verdict(%v, %v) = %v, %v; want %v, %v", c.xs, c.limit, m, ok, c.median, c.ok)
			}
		})
	}
}
