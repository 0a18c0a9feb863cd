package cloud

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTable1Catalog(t *testing.T) {
	cat := EC2Catalog()
	if len(cat) != 4 {
		t.Fatalf("EC2 catalog has %d entries, want 4", len(cat))
	}
	// Spot-check Table 1 rows.
	if EC2Large.MemoryGB != 7.5 || EC2Large.ComputeUnits != 4 || EC2Large.Cores != 2 || EC2Large.CostPerHour != 0.34 {
		t.Errorf("EC2 Large row mismatch: %+v", EC2Large)
	}
	if EC2HCXL.MemoryGB != 7 || EC2HCXL.ComputeUnits != 20 || EC2HCXL.Cores != 8 || EC2HCXL.CostPerHour != 0.68 {
		t.Errorf("EC2 HCXL row mismatch: %+v", EC2HCXL)
	}
	if EC2HM4XL.MemoryGB != 68.4 || EC2HM4XL.ComputeUnits != 26 || EC2HM4XL.CostPerHour != 2.00 {
		t.Errorf("EC2 HM4XL row mismatch: %+v", EC2HM4XL)
	}
	// The paper's HCXL observation: same price as XL, more compute.
	if EC2HCXL.CostPerHour != EC2ExtraLarge.CostPerHour {
		t.Error("HCXL should cost the same as XL")
	}
	if EC2HCXL.ComputeUnits <= EC2ExtraLarge.ComputeUnits {
		t.Error("HCXL should have more compute units than XL")
	}
	if EC2HCXL.MemoryGB >= EC2ExtraLarge.MemoryGB {
		t.Error("HCXL should have less memory than XL")
	}
}

func TestTable2Catalog(t *testing.T) {
	cat := AzureCatalog()
	if len(cat) != 4 {
		t.Fatalf("Azure catalog has %d entries, want 4", len(cat))
	}
	// Azure scales linearly from Small to Extra Large.
	base := AzureSmall
	mults := []float64{1, 2, 4, 8}
	for i, it := range cat {
		if math.Abs(it.CostPerHour-base.CostPerHour*mults[i]) > 1e-9 {
			t.Errorf("%s cost %.2f, want %.2f", it.Name, it.CostPerHour, base.CostPerHour*mults[i])
		}
		if it.Cores != int(mults[i]) {
			t.Errorf("%s cores %d, want %d", it.Name, it.Cores, int(mults[i]))
		}
	}
	if AzureSmall.MemoryGB != 1.7 || AzureSmall.LocalDiskGB != 250 {
		t.Errorf("Azure Small row mismatch: %+v", AzureSmall)
	}
}

func TestComputeBillHourUnits(t *testing.T) {
	// 90 minutes on 16 HCXL: 2 hour-units each → 32 units → $21.76.
	b := ComputeBill(EC2HCXL, 16, 90*time.Minute)
	if b.HourUnits != 32 {
		t.Errorf("HourUnits = %v, want 32", b.HourUnits)
	}
	if math.Abs(b.ComputeCost-32*0.68) > 1e-9 {
		t.Errorf("ComputeCost = %v", b.ComputeCost)
	}
	if math.Abs(b.Amortized-1.5*16*0.68) > 1e-9 {
		t.Errorf("Amortized = %v", b.Amortized)
	}
}

func TestComputeBillExactHour(t *testing.T) {
	b := ComputeBill(AzureSmall, 128, time.Hour)
	if b.HourUnits != 128 {
		t.Errorf("HourUnits = %v, want 128 (exact hour must not round up)", b.HourUnits)
	}
	// This is Table 4's Azure compute line: 128 × $0.12 = $15.36.
	if math.Abs(b.ComputeCost-15.36) > 1e-9 {
		t.Errorf("ComputeCost = %v, want 15.36", b.ComputeCost)
	}
}

func TestComputeBillZeroDuration(t *testing.T) {
	b := ComputeBill(EC2Large, 4, 0)
	if b.HourUnits != 0 || b.ComputeCost != 0 || b.Amortized != 0 {
		t.Errorf("zero duration bill = %+v", b)
	}
}

// Property: amortized cost never exceeds hour-unit cost, and both are
// monotone in duration.
func TestQuickBillProperties(t *testing.T) {
	f := func(mins uint16, n uint8) bool {
		if n == 0 {
			n = 1
		}
		d := time.Duration(mins) * time.Minute
		b := ComputeBill(EC2HCXL, int(n), d)
		if b.Amortized > b.ComputeCost+1e-9 {
			return false
		}
		b2 := ComputeBill(EC2HCXL, int(n), d+30*time.Minute)
		return b2.ComputeCost >= b.ComputeCost && b2.Amortized >= b.Amortized
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServiceCostTable4Lines(t *testing.T) {
	// AWS: ~10,000 queue messages $0.01, 1 GB-month $0.14, 1 GB in $0.10.
	aws := AWSRates.ServiceCost(10000, 1, 1, 0)
	if math.Abs(aws-0.25) > 1e-9 {
		t.Errorf("AWS service cost = %v, want 0.25", aws)
	}
	// Azure: $0.01 + $0.15 + $0.10 in + $0.15 out.
	az := AzureRates.ServiceCost(10000, 1, 1, 1)
	if math.Abs(az-0.41) > 1e-9 {
		t.Errorf("Azure service cost = %v, want 0.41", az)
	}
}

func TestTable4TotalCosts(t *testing.T) {
	// EC2 line: 16 HCXL for one hour + services = 10.88 + 0.25 = 11.13.
	ec2 := ComputeBill(EC2HCXL, 16, time.Hour).ComputeCost + AWSRates.ServiceCost(10000, 1, 1, 0)
	if math.Abs(ec2-11.13) > 1e-6 {
		t.Errorf("EC2 total = %.4f, want 11.13", ec2)
	}
	// Azure line: 128 Small for one hour + services = 15.36 + 0.41 = 15.77.
	az := ComputeBill(AzureSmall, 128, time.Hour).ComputeCost + AzureRates.ServiceCost(10000, 1, 1, 1)
	if math.Abs(az-15.77) > 1e-6 {
		t.Errorf("Azure total = %.4f, want 15.77", az)
	}
}

func TestOwnedClusterUtilization(t *testing.T) {
	c := PaperCluster
	// Higher utilization → cheaper effective hour.
	h80 := c.HourlyCost(0.8)
	h60 := c.HourlyCost(0.6)
	if h80 >= h60 {
		t.Errorf("80%% util %.2f should be cheaper than 60%% util %.2f", h80, h60)
	}
	// The paper's approximations: $8.25 (80%), $9.43 (70%), $11.01 (60%)
	// for the Cap3 4096-file job. Our model prices the whole cluster per
	// hour; the job occupied it for ≈ 10.9 minutes of cluster time.
	// Verify the ratio structure instead of absolute job length: cost at
	// 60% / cost at 80% must equal 80/60.
	if math.Abs(h60/h80-80.0/60.0) > 1e-9 {
		t.Errorf("utilization scaling broken: %v", h60/h80)
	}
	if !math.IsInf(c.HourlyCost(0), 1) {
		t.Error("zero utilization should be infinitely expensive")
	}
}

func TestOwnedClusterJobCostMatchesPaperBand(t *testing.T) {
	// Find the job duration that reproduces the paper's $8.25 at 80%:
	// duration = 8.25 / HourlyCost(0.8). Then the same duration at 70%
	// and 60% must give ≈ $9.43 and $11.01 (paper Section 4.3).
	c := PaperCluster
	d := time.Duration(8.25 / c.HourlyCost(0.8) * float64(time.Hour))
	got70 := c.JobCost(d, 0.7)
	got60 := c.JobCost(d, 0.6)
	if math.Abs(got70-9.43) > 0.05 {
		t.Errorf("70%% utilization job cost = %.2f, want ≈ 9.43", got70)
	}
	if math.Abs(got60-11.01) > 0.05 {
		t.Errorf("60%% utilization job cost = %.2f, want ≈ 11.01", got60)
	}
}

func TestInstanceString(t *testing.T) {
	s := EC2HCXL.String()
	if s == "" {
		t.Error("empty String()")
	}
}
