// Package cloud models the compute platforms of the paper: the Amazon
// EC2 and Microsoft Azure instance catalogs (Tables 1 and 2), hourly
// billing with both accounting conventions the paper uses ("compute cost
// in hour units" versus "amortized cost"), cloud-service request pricing,
// and the owned-cluster total-cost-of-ownership model behind Table 4.
package cloud

import (
	"fmt"
	"math"
	"time"
)

// Provider identifies a cloud platform.
type Provider string

// Providers evaluated by the paper.
const (
	AWS   Provider = "aws"
	Azure Provider = "azure"
	// BareMetal marks the paper's internal clusters (Hadoop/DryadLINQ
	// bare-metal runs); they have machine models but no hourly price.
	BareMetal Provider = "baremetal"
)

// InstanceType describes one purchasable VM shape plus the machine-model
// attributes the performance simulator needs.
type InstanceType struct {
	Name     string
	Provider Provider
	// Catalog data (Tables 1–2).
	MemoryGB     float64
	ComputeUnits int     // EC2 compute units (0 where not applicable)
	Cores        int     // actual CPU cores the paper assigns
	CostPerHour  float64 // USD
	SixtyFourBit bool
	LocalDiskGB  float64
	// Machine model (used by perfmodel).
	ClockGHz        float64 // approximate per-core clock
	MemBandwidthGBs float64 // aggregate memory bandwidth shared by cores
}

// EC2 instance types from Table 1. Clock speeds follow the paper's
// annotations (~2.0, ~2.5, ~3.25 GHz); memory bandwidth values are
// modelling estimates consistent with the era's hardware, chosen so that
// memory-bound workloads reproduce the paper's ordering.
var (
	EC2Large = InstanceType{
		Name: "Large", Provider: AWS, MemoryGB: 7.5, ComputeUnits: 4, Cores: 2,
		CostPerHour: 0.34, SixtyFourBit: true, ClockGHz: 2.0, MemBandwidthGBs: 6.4,
	}
	EC2ExtraLarge = InstanceType{
		Name: "Extra Large", Provider: AWS, MemoryGB: 15, ComputeUnits: 8, Cores: 4,
		CostPerHour: 0.68, SixtyFourBit: true, ClockGHz: 2.0, MemBandwidthGBs: 12.8,
	}
	EC2HCXL = InstanceType{
		Name: "High CPU Extra Large", Provider: AWS, MemoryGB: 7, ComputeUnits: 20, Cores: 8,
		CostPerHour: 0.68, SixtyFourBit: true, ClockGHz: 2.5, MemBandwidthGBs: 12.8,
	}
	EC2HM4XL = InstanceType{
		Name: "High Memory 4XL", Provider: AWS, MemoryGB: 68.4, ComputeUnits: 26, Cores: 8,
		CostPerHour: 2.00, SixtyFourBit: true, ClockGHz: 3.25, MemBandwidthGBs: 25.6,
	}
)

// Azure instance types from Table 2. The paper speculates ~1.5–1.7 GHz
// per core and observes 8 Azure Small ≈ 1 EC2 HCXL for Cap3; a 1.6 GHz
// clock with HCXL's per-core throughput scaling satisfies that.
var (
	AzureSmall = InstanceType{
		Name: "Small", Provider: Azure, MemoryGB: 1.7, Cores: 1, LocalDiskGB: 250,
		CostPerHour: 0.12, SixtyFourBit: true, ClockGHz: 1.6, MemBandwidthGBs: 3.2,
	}
	AzureMedium = InstanceType{
		Name: "Medium", Provider: Azure, MemoryGB: 3.5, Cores: 2, LocalDiskGB: 500,
		CostPerHour: 0.24, SixtyFourBit: true, ClockGHz: 1.6, MemBandwidthGBs: 6.4,
	}
	AzureLarge = InstanceType{
		Name: "Large", Provider: Azure, MemoryGB: 7, Cores: 4, LocalDiskGB: 1000,
		CostPerHour: 0.48, SixtyFourBit: true, ClockGHz: 1.6, MemBandwidthGBs: 12.8,
	}
	AzureExtraLarge = InstanceType{
		Name: "Extra Large", Provider: Azure, MemoryGB: 15, Cores: 8, LocalDiskGB: 2000,
		CostPerHour: 0.96, SixtyFourBit: true, ClockGHz: 1.6, MemBandwidthGBs: 25.6,
	}
)

// Bare-metal cluster nodes used in the paper's Hadoop and DryadLINQ runs.
var (
	// IDataPlexNode: 2×4-core Intel Xeon E5410 2.33 GHz, 16 GB (Hadoop BLAST).
	IDataPlexNode = InstanceType{
		Name: "iDataPlex 8-core", Provider: BareMetal, MemoryGB: 16, Cores: 8,
		SixtyFourBit: true, ClockGHz: 2.33, MemBandwidthGBs: 21.0,
	}
	// HPCNode: 16-core AMD Opteron 2.3 GHz, 16 GB (DryadLINQ runs).
	HPCNode = InstanceType{
		Name: "Windows HPC 16-core", Provider: BareMetal, MemoryGB: 16, Cores: 16,
		SixtyFourBit: true, ClockGHz: 2.3, MemBandwidthGBs: 21.0,
	}
	// ClusterNode32x8: the 32-node × 8-core 2.5 GHz cluster of the Cap3
	// scalability study.
	ClusterNode32x8 = InstanceType{
		Name: "bare metal 8-core", Provider: BareMetal, MemoryGB: 16, Cores: 8,
		SixtyFourBit: true, ClockGHz: 2.5, MemBandwidthGBs: 21.0,
	}
)

// EC2Catalog returns Table 1 in presentation order.
func EC2Catalog() []InstanceType {
	return []InstanceType{EC2Large, EC2ExtraLarge, EC2HCXL, EC2HM4XL}
}

// AzureCatalog returns Table 2 in presentation order.
func AzureCatalog() []InstanceType {
	return []InstanceType{AzureSmall, AzureMedium, AzureLarge, AzureExtraLarge}
}

// Key returns the "provider/name" identifier used wherever an instance
// type crosses a serialization boundary (journal events, monitor
// reports, calibration catalog keys). Resolving a key back to a catalog
// entry is the broker's resolveInstanceType.
func (it InstanceType) Key() string {
	return string(it.Provider) + "/" + it.Name
}

// String renders the catalog row.
func (it InstanceType) String() string {
	return fmt.Sprintf("%s/%s: %d cores, %.1f GB, $%.2f/h", it.Provider, it.Name, it.Cores, it.MemoryGB, it.CostPerHour)
}

// Bill captures the two cost conventions of Section 3: compute cost in
// hour units (each instance billed for whole hours started) and amortized
// cost (billed for the exact fraction used).
type Bill struct {
	Instances   int
	Type        InstanceType
	Runtime     time.Duration
	HourUnits   float64 // whole instance-hours billed
	ComputeCost float64 // HourUnits convention, USD
	Amortized   float64 // exact-fraction convention, USD
}

// ComputeBill prices running n instances of type it for d.
func ComputeBill(it InstanceType, n int, d time.Duration) Bill {
	hours := d.Hours()
	units := math.Ceil(hours-1e-9) * float64(n)
	if d <= 0 {
		units = 0
	}
	return Bill{
		Instances:   n,
		Type:        it,
		Runtime:     d,
		HourUnits:   units,
		ComputeCost: units * it.CostPerHour,
		Amortized:   hours * float64(n) * it.CostPerHour,
	}
}

// ServiceRates carries the auxiliary cloud-service prices used in the
// paper's Table 4 cost breakdown.
type ServiceRates struct {
	QueuePer10K      float64 // USD per 10,000 queue API requests
	StoragePerGBMo   float64 // USD per GB-month of blob storage
	TransferInPerGB  float64 // USD per GB ingress
	TransferOutPerGB float64 // USD per GB egress
}

// AWSRates and AzureRates match the Table 4 line items.
var (
	AWSRates   = ServiceRates{QueuePer10K: 0.01, StoragePerGBMo: 0.14, TransferInPerGB: 0.10, TransferOutPerGB: 0}
	AzureRates = ServiceRates{QueuePer10K: 0.01, StoragePerGBMo: 0.15, TransferInPerGB: 0.10, TransferOutPerGB: 0.15}
)

// ServiceCost prices queue requests, storage, and transfer.
func (r ServiceRates) ServiceCost(queueRequests int, storageGBMonths, inGB, outGB float64) float64 {
	return float64(queueRequests)/10000*r.QueuePer10K +
		storageGBMonths*r.StoragePerGBMo +
		inGB*r.TransferInPerGB +
		outGB*r.TransferOutPerGB
}

// OwnedCluster models the internal compute cluster of Section 4.3: a
// purchase price depreciated over a fixed horizon plus yearly
// maintenance, yielding an effective cost per wall-clock hour that
// depends on utilization.
type OwnedCluster struct {
	PurchaseCost      float64 // USD
	DepreciationYears float64
	YearlyMaintenance float64 // power, cooling, administration
	Nodes             int
	CoresPerNode      int
}

// PaperCluster is the 32-node, 24-core cluster the paper prices
// (~$500,000 purchase, 3-year depreciation, ~$150,000/year maintenance).
var PaperCluster = OwnedCluster{
	PurchaseCost:      500000,
	DepreciationYears: 3,
	YearlyMaintenance: 150000,
	Nodes:             32,
	CoresPerNode:      24,
}

// HourlyCost returns the cluster's total cost per wall-clock hour at the
// given utilization (fraction of hours doing useful work).
func (c OwnedCluster) HourlyCost(utilization float64) float64 {
	if utilization <= 0 {
		return math.Inf(1)
	}
	perYear := c.PurchaseCost/c.DepreciationYears + c.YearlyMaintenance
	hoursPerYear := 365.0 * 24
	return perYear / (hoursPerYear * utilization)
}

// JobCost prices a job occupying the whole cluster for d at the given
// utilization level.
func (c OwnedCluster) JobCost(d time.Duration, utilization float64) float64 {
	return c.HourlyCost(utilization) * d.Hours()
}
