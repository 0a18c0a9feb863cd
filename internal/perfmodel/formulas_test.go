package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestParallelEfficiencyPerfectScaling(t *testing.T) {
	// 100s sequential, 10 cores, 10s parallel → efficiency 1.
	if e := ParallelEfficiency(100*time.Second, 10*time.Second, 10); math.Abs(e-1) > 1e-12 {
		t.Errorf("efficiency = %v, want 1", e)
	}
}

func TestParallelEfficiencyHalf(t *testing.T) {
	if e := ParallelEfficiency(100*time.Second, 20*time.Second, 10); math.Abs(e-0.5) > 1e-12 {
		t.Errorf("efficiency = %v, want 0.5", e)
	}
}

func TestParallelEfficiencyDegenerate(t *testing.T) {
	if ParallelEfficiency(time.Second, time.Second, 0) != 0 {
		t.Error("zero cores should give 0")
	}
	if ParallelEfficiency(time.Second, 0, 4) != 0 {
		t.Error("zero parallel time should give 0")
	}
}

// Property: efficiency ∈ (0, 1] whenever Tp ≥ T1/P (no superlinear).
func TestQuickEfficiencyBounds(t *testing.T) {
	f := func(t1ms, slackMs uint16, p uint8) bool {
		if t1ms == 0 || p == 0 {
			return true
		}
		t1 := time.Duration(t1ms) * time.Millisecond
		cores := int(p%64) + 1
		ideal := t1 / time.Duration(cores)
		tp := ideal + time.Duration(slackMs)*time.Millisecond
		if tp == 0 {
			return true
		}
		e := ParallelEfficiency(t1, tp, cores)
		return e > 0 && e <= 1.0+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerCoreTime(t *testing.T) {
	// 16 cores processing 200 files in 1000s → 80s per file per core.
	got := PerCoreTime(1000*time.Second, 16, 200)
	if got != 80*time.Second {
		t.Errorf("PerCoreTime = %v, want 80s", got)
	}
	if PerCoreTime(time.Second, 4, 0) != 0 {
		t.Error("zero tasks should give 0")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9} // mean 5, sd 2 → 40%
	if cv := CoefficientOfVariation(xs); math.Abs(cv-40) > 1e-9 {
		t.Errorf("CV = %v, want 40", cv)
	}
	if CoefficientOfVariation([]float64{0, 0}) != 0 {
		t.Error("zero mean should give 0")
	}
}
