package perfmodel

import (
	"time"

	"repro/internal/cloud"
)

// InstanceConfig is one bar of the EC2 instance-type studies, labelled
// the way the paper labels its axes: "Type – Instances × Workers".
type InstanceConfig struct {
	Type      cloud.InstanceType
	Instances int
	Workers   int
}

// Label renders the paper's axis label, e.g. "HCXL - 2 x 8".
func (c InstanceConfig) Label() string {
	short := map[string]string{
		"Large": "Large", "Extra Large": "XL",
		"High CPU Extra Large": "HCXL", "High Memory 4XL": "HM4XL",
	}
	name := c.Type.Name
	if s, ok := short[name]; ok {
		name = s
	}
	return name + " - " + itoa(c.Instances) + " x " + itoa(c.Workers)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// SixteenCoreConfigs are the paper's instance-study configurations:
// every study uses 16 compute cores (Section 3).
func SixteenCoreConfigs() []InstanceConfig {
	return []InstanceConfig{
		{Type: cloud.EC2Large, Instances: 8, Workers: 2},
		{Type: cloud.EC2ExtraLarge, Instances: 4, Workers: 4},
		{Type: cloud.EC2HCXL, Instances: 2, Workers: 8},
		{Type: cloud.EC2HM4XL, Instances: 2, Workers: 8},
	}
}

// InstanceStudyRow is one row of Figures 3/4, 7/8, or 12/13.
type InstanceStudyRow struct {
	Label       string
	ComputeTime time.Duration
	ComputeCost float64 // hour-unit convention (the figures' "Compute Cost")
	Amortized   float64
}

func instanceStudy(app AppModel, nFiles int, seed int64) []InstanceStudyRow {
	var rows []InstanceStudyRow
	for _, cfg := range SixteenCoreConfigs() {
		out := Simulate(RunSpec{
			App:       app,
			Framework: ClassicEC2,
			Instance:  cfg.Type,
			Instances: cfg.Instances, WorkersPerInstance: cfg.Workers,
			NFiles: nFiles,
			Seed:   seed,
		})
		rows = append(rows, InstanceStudyRow{
			Label:       cfg.Label(),
			ComputeTime: out.Makespan.Round(time.Second),
			ComputeCost: out.Bill.ComputeCost,
			Amortized:   out.Bill.Amortized,
		})
	}
	return rows
}

// Cap3InstanceStudy reproduces Figures 3 and 4: 200 FASTA files of 200
// reads on 16 cores across EC2 instance types.
func Cap3InstanceStudy() []InstanceStudyRow {
	return instanceStudy(Cap3Model(200), 200, 3)
}

// BlastInstanceStudy reproduces Figures 7 and 8: 64 query files of 100
// sequences on 16 cores.
func BlastInstanceStudy() []InstanceStudyRow {
	return instanceStudy(BlastModel(100), 64, 7)
}

// GTMInstanceStudy reproduces Figures 12 and 13: 100k-point interpolation
// shards on 16 cores. 64 shards keep times inside the figure's axis.
func GTMInstanceStudy() []InstanceStudyRow {
	return instanceStudy(GTMModel(100000), 64, 12)
}

// AzureBlastRow is one bar of Figure 9: an Azure instance type with a
// workers × threads decomposition of its cores.
type AzureBlastRow struct {
	InstanceType string
	Instances    int
	Workers      int // per instance
	Threads      int // per worker
	Time         time.Duration
}

// BlastAzureStudy reproduces Figure 9: 8 query files processed by 8
// cores' worth of each Azure instance type, decomposing instance cores
// into worker processes × BLAST threads.
func BlastAzureStudy() []AzureBlastRow {
	app := BlastModel(100)
	var rows []AzureBlastRow
	type deployment struct {
		it        cloud.InstanceType
		instances int
	}
	deployments := []deployment{
		{cloud.AzureSmall, 8},
		{cloud.AzureMedium, 4},
		{cloud.AzureLarge, 2},
		{cloud.AzureExtraLarge, 1},
	}
	for _, d := range deployments {
		cores := d.it.Cores
		for threads := 1; threads <= cores; threads *= 2 {
			workers := cores / threads
			out := Simulate(RunSpec{
				App:       app,
				Framework: ClassicAzure,
				Instance:  d.it,
				Instances: d.instances, WorkersPerInstance: workers,
				ThreadsPerWorker: threads,
				NFiles:           8,
				Seed:             9,
			})
			rows = append(rows, AzureBlastRow{
				InstanceType: d.it.Name,
				Instances:    d.instances,
				Workers:      workers,
				Threads:      threads,
				Time:         out.Makespan.Round(time.Second),
			})
		}
	}
	return rows
}

// ScalabilityPoint is one (framework, scale) sample of Figures 5/6,
// 10/11, or 14/15.
type ScalabilityPoint struct {
	Framework      string
	Cores          int
	Files          int
	Makespan       time.Duration
	Efficiency     float64
	PerFilePerCore time.Duration // Equation 2 (Figures 6, 11, 15)
}

// deployment binds a framework to the hardware the paper ran it on.
type deployment struct {
	framework Framework
	instance  cloud.InstanceType
	// coresToInstances converts a target core count to instance count.
	coresToInstances func(cores int) int
}

func cap3Deployments() []deployment {
	perInstance := func(it cloud.InstanceType) func(int) int {
		return func(cores int) int { return (cores + it.Cores - 1) / it.Cores }
	}
	return []deployment{
		{ClassicEC2, cloud.EC2HCXL, perInstance(cloud.EC2HCXL)},
		{ClassicAzure, cloud.AzureSmall, perInstance(cloud.AzureSmall)},
		{HadoopBareMetal, cloud.ClusterNode32x8, perInstance(cloud.ClusterNode32x8)},
		{DryadLINQ, cloud.ClusterNode32x8, perInstance(cloud.ClusterNode32x8)},
	}
}

// Cap3Scalability reproduces Figures 5 and 6: weak scaling of the
// replicated 458-read file set across the four implementations (16 HCXL
// EC2 instances / 128 Azure Smalls / 32×8-core bare metal at full scale).
func Cap3Scalability() []ScalabilityPoint {
	app := Cap3Model(458)
	var points []ScalabilityPoint
	for _, cores := range []int{16, 32, 64, 128} {
		files := cores * 4 // weak scaling: constant work per core
		for _, d := range cap3Deployments() {
			out := Simulate(RunSpec{
				App:       app,
				Framework: d.framework,
				Instance:  d.instance,
				Instances: d.coresToInstances(cores),
				NFiles:    files,
				Seed:      int64(cores),
			})
			points = append(points, scalePoint(out, files))
		}
	}
	return points
}

// BlastScalability reproduces Figures 10 and 11: the 128-file query set
// replicated 1–6×, on the paper's fixed deployments (16 HCXL EC2 = 128
// cores; 16 Azure Large = 64 cores; iDataplex Hadoop; Windows HPC
// DryadLINQ). The base set is inhomogeneous (Section 5.2).
func BlastScalability() []ScalabilityPoint {
	app := BlastModel(100)
	type dep struct {
		framework Framework
		instance  cloud.InstanceType
		instances int
	}
	deps := []dep{
		{ClassicEC2, cloud.EC2HCXL, 16},
		{ClassicAzure, cloud.AzureLarge, 16},
		{HadoopBareMetal, cloud.IDataPlexNode, 16},
		{DryadLINQ, cloud.HPCNode, 8},
	}
	var points []ScalabilityPoint
	for replicas := 1; replicas <= 6; replicas++ {
		files := 128 * replicas
		for _, d := range deps {
			out := Simulate(RunSpec{
				App:       app,
				Framework: d.framework,
				Instance:  d.instance,
				Instances: d.instances,
				NFiles:    files,
				// The base 128-file set is inhomogeneous; replication
				// repeats the same skew.
				Heterogeneity: 0.15,
				Seed:          int64(replicas),
			})
			points = append(points, scalePoint(out, files))
		}
	}
	return points
}

// GTMScalability reproduces Figures 14 and 15: the 264-shard PubChem
// interpolation on each platform, strong scaling over core counts.
func GTMScalability() []ScalabilityPoint {
	app := GTMModel(100000)
	perInstance := func(it cloud.InstanceType) func(int) int {
		return func(cores int) int { return (cores + it.Cores - 1) / it.Cores }
	}
	deps := []deployment{
		{ClassicEC2, cloud.EC2Large, perInstance(cloud.EC2Large)},
		{ClassicEC2, cloud.EC2HCXL, perInstance(cloud.EC2HCXL)},
		{ClassicEC2, cloud.EC2HM4XL, perInstance(cloud.EC2HM4XL)},
		{ClassicAzure, cloud.AzureSmall, perInstance(cloud.AzureSmall)},
		{HadoopBareMetal, cloud.ClusterNode32x8, perInstance(cloud.ClusterNode32x8)},
		{DryadLINQ, cloud.HPCNode, perInstance(cloud.HPCNode)},
	}
	var points []ScalabilityPoint
	for _, cores := range []int{8, 16, 32, 64} {
		for _, d := range deps {
			out := Simulate(RunSpec{
				App:       app,
				Framework: d.framework,
				Instance:  d.instance,
				Instances: d.coresToInstances(cores),
				NFiles:    264,
				Seed:      int64(cores),
			})
			p := scalePoint(out, 264)
			p.Framework = d.framework.String() + "/" + d.instance.Name
			points = append(points, p)
		}
	}
	return points
}

func scalePoint(out Outcome, files int) ScalabilityPoint {
	return ScalabilityPoint{
		Framework:      out.Spec.Framework.String(),
		Cores:          out.Spec.TotalCores(),
		Files:          files,
		Makespan:       out.Makespan.Round(time.Second),
		Efficiency:     out.Efficiency,
		PerFilePerCore: out.PerCoreTime.Round(10 * time.Millisecond),
	}
}

// Table4 reproduces the paper's cost comparison for assembling 4096
// FASTA files (458 reads each).
type Table4 struct {
	EC2Makespan   time.Duration
	AzureMakespan time.Duration

	EC2Compute    float64
	EC2Queue      float64
	EC2Storage    float64
	EC2TransferIn float64
	EC2Total      float64

	AzureCompute  float64
	AzureQueue    float64
	AzureStorage  float64
	AzureTransfer float64
	AzureTotal    float64

	// ClusterCost maps utilization (0.6, 0.7, 0.8) to the owned-cluster
	// cost of the same job.
	ClusterCost      map[float64]float64
	ClusterMakespan  time.Duration
	ClusterHourlyAt8 float64 // effective $/h at 80% utilization
}

// Table4CostComparison runs the 4096-file Cap3 job on the paper's three
// platforms and prices them.
func Table4CostComparison() Table4 {
	app := Cap3Model(458)
	const files = 4096

	ec2 := Simulate(RunSpec{
		App: app, Framework: ClassicEC2, Instance: cloud.EC2HCXL,
		Instances: 16, NFiles: files, Seed: 4,
	})
	azure := Simulate(RunSpec{
		App: app, Framework: ClassicAzure, Instance: cloud.AzureSmall,
		Instances: 128, NFiles: files, Seed: 4,
	})

	// The owned cluster runs Hadoop on its 32 × 24-core nodes.
	clusterNode := cloud.InstanceType{
		Name: "internal 24-core", Provider: cloud.BareMetal,
		Cores: 24, MemoryGB: 48, ClockGHz: 2.4, MemBandwidthGBs: 32,
	}
	clusterRun := Simulate(RunSpec{
		App: app, Framework: HadoopBareMetal, Instance: clusterNode,
		Instances: 32, NFiles: files, Seed: 4,
	})

	t := Table4{
		EC2Makespan:   ec2.Makespan.Round(time.Second),
		AzureMakespan: azure.Makespan.Round(time.Second),

		EC2Compute:    ec2.Bill.ComputeCost,
		EC2Queue:      cloud.AWSRates.ServiceCost(ec2.QueueRequests, 0, 0, 0),
		EC2Storage:    cloud.AWSRates.ServiceCost(0, 1, 0, 0),
		EC2TransferIn: cloud.AWSRates.ServiceCost(0, 0, 1, 0),

		AzureCompute:  azure.Bill.ComputeCost,
		AzureQueue:    cloud.AzureRates.ServiceCost(azure.QueueRequests, 0, 0, 0),
		AzureStorage:  cloud.AzureRates.ServiceCost(0, 1, 0, 0),
		AzureTransfer: cloud.AzureRates.ServiceCost(0, 0, 1, 1),

		ClusterMakespan: clusterRun.Makespan.Round(time.Second),
		ClusterCost:     map[float64]float64{},
	}
	t.EC2Total = t.EC2Compute + t.EC2Queue + t.EC2Storage + t.EC2TransferIn
	t.AzureTotal = t.AzureCompute + t.AzureQueue + t.AzureStorage + t.AzureTransfer
	for _, u := range []float64{0.6, 0.7, 0.8} {
		t.ClusterCost[u] = cloud.PaperCluster.JobCost(clusterRun.Makespan, u)
	}
	t.ClusterHourlyAt8 = cloud.PaperCluster.HourlyCost(0.8)
	return t
}

// InhomogeneousRow is one point of the Section 4.2 load-balancing study:
// dynamic (Hadoop) versus static (DryadLINQ) scheduling as per-file cost
// variance grows.
type InhomogeneousRow struct {
	Heterogeneity  float64
	HadoopMakespan time.Duration
	DryadMakespan  time.Duration
	// Ratio is Dryad/Hadoop; > 1 quantifies the static-partitioning
	// penalty the paper reports.
	Ratio float64
}

// InhomogeneousStudy sweeps per-file cost variance on the 32×8 cluster
// with a skew-sorted file list, the case where ref [13] observed
// DryadLINQ's static partitioning falling behind Hadoop's dynamic
// scheduling.
func InhomogeneousStudy() []InhomogeneousRow {
	app := Cap3Model(458)
	var rows []InhomogeneousRow
	for _, h := range []float64{0, 0.2, 0.4, 0.6} {
		hd := Simulate(RunSpec{
			App: app, Framework: HadoopBareMetal, Instance: cloud.ClusterNode32x8,
			Instances: 32, NFiles: 512, Heterogeneity: h, SortedSkew: true, Seed: 11,
		})
		dr := Simulate(RunSpec{
			App: app, Framework: DryadLINQ, Instance: cloud.ClusterNode32x8,
			Instances: 32, NFiles: 512, Heterogeneity: h, SortedSkew: true, Seed: 11,
		})
		rows = append(rows, InhomogeneousRow{
			Heterogeneity:  h,
			HadoopMakespan: hd.Makespan.Round(time.Second),
			DryadMakespan:  dr.Makespan.Round(time.Second),
			Ratio:          float64(dr.Makespan) / float64(hd.Makespan),
		})
	}
	return rows
}

// AzureLinearityRow is one row of the Azure instance-type check for an
// application.
type AzureLinearityRow struct {
	Type      cloud.InstanceType
	Instances int
	Time      time.Duration
	// CostTimeProduct is cost/hour × time; constant across rows when
	// performance "scales linearly with the price".
	CostTimeProduct float64
}

// AzureLinearityCheck explains why the paper presents no Azure instance
// study for Cap3 and GTM (Section 3): on Azure those applications'
// performance scales linearly with instance price, so every type costs
// the same per unit of work. The check runs the application on 8 cores'
// worth of each Azure type and reports cost×time, which should be flat
// for Cap3/GTM but not for BLAST (where memory capacity breaks
// linearity, motivating Figure 9).
func AzureLinearityCheck(app AppModel) []AzureLinearityRow {
	var rows []AzureLinearityRow
	type dep struct {
		it        cloud.InstanceType
		instances int
	}
	for _, d := range []dep{
		{cloud.AzureSmall, 8}, {cloud.AzureMedium, 4},
		{cloud.AzureLarge, 2}, {cloud.AzureExtraLarge, 1},
	} {
		out := Simulate(RunSpec{
			App: app, Framework: ClassicAzure, Instance: d.it,
			Instances: d.instances, NFiles: 64, Seed: 17,
		})
		rows = append(rows, AzureLinearityRow{
			Type:            d.it,
			Instances:       d.instances,
			Time:            out.Makespan.Round(time.Second),
			CostTimeProduct: d.it.CostPerHour * float64(d.instances) * out.Makespan.Hours(),
		})
	}
	return rows
}

// VariabilityStudy reproduces the sustained-performance observation of
// Section 3: coefficient of variation of week-long performance samples.
func VariabilityStudy() (awsCV, azureCV float64) {
	aws := VariabilitySample(ClassicEC2, 7, 24, 21)
	az := VariabilitySample(ClassicAzure, 7, 24, 22)
	return CoefficientOfVariation(aws), CoefficientOfVariation(az)
}
