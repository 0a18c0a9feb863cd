// Package perfmodel reproduces the paper's performance and cost figures
// at full scale with a list scheduler: each task, in input order, goes
// to the worker that frees first. It combines three calibrated
// ingredients:
//
//  1. Application models — per-task compute demand (GHz·seconds), memory
//     traffic, shared-data residency, and transfer sizes for Cap3, BLAST
//     and GTM Interpolation, calibrated against the paper's reported
//     runtimes and cost table.
//  2. Machine models — the instance catalog of internal/cloud: per-core
//     clock, aggregate memory bandwidth shared by concurrent workers, and
//     memory capacity for shared data.
//  3. Framework models — per-task and per-job overheads of the Classic
//     Cloud (queue + blob), Hadoop, and DryadLINQ execution styles, plus
//     their scheduling policies (dynamic global queue versus static
//     partitions).
//
// CalibratedModel.Plan inverts the price tables for the elastic broker:
// the cheapest (instance type, fleet size) meeting a deadline.
//
// The Classic Cloud model keeps the paper's per-file storage transfers:
// a GET and a PUT per task, each paying its own round trip. The system
// itself (internal/classiccloud) batches them, one object per staged
// batch of files each way, so its measured blob request count is about a
// tenth of the model's; the model stays the paper's, because its figures
// are what it reproduces.
//
// Absolute times are model outputs, not measurements of this machine;
// the reproduction targets are the *shapes* the paper reports: which
// instance type wins, which is most economical, how efficiency scales,
// and where the framework differences appear.
package perfmodel

import (
	"math"

	"repro/internal/cloud"
)

// AppModel describes one application's per-task resource demands.
type AppModel struct {
	Name string
	// WorkGHzSec is the compute demand: seconds on an ideal 1 GHz core.
	WorkGHzSec float64
	// MemTrafficGB is the memory traffic one task streams; tasks become
	// bandwidth-bound when the per-worker share of instance bandwidth is
	// the bottleneck (the GTM profile).
	MemTrafficGB float64
	// SharedMemGB is resident shared data per instance (BLAST database);
	// instances with less memory pay MissPenalty.
	SharedMemGB float64
	// MissPenalty scales the slowdown when SharedMemGB exceeds instance
	// memory: slowdown = 1 + MissPenalty × (1 − mem/SharedMemGB).
	MissPenalty float64
	// WindowsSpeedup divides task time on Windows platforms (Cap3 runs
	// ~12.5% faster on Windows per Section 4.2).
	WindowsSpeedup float64
	// InputMB and OutputMB are per-task transfer sizes for storage-based
	// frameworks.
	InputMB  float64
	OutputMB float64
	// ThreadEfficiency is the per-doubling efficiency of intra-task
	// threading (BLAST's "pure threads slightly slower than processes").
	ThreadEfficiency float64
}

// Cap3 work calibration: WorkGHzSec = cap3WorkPerRead × reads. The value
// is fixed by Table 4: 4096 files of 458 reads must finish within one
// billed hour both on 16 HCXL instances (128 × 2.5 GHz cores) and on 128
// Azure Small instances (1.6 GHz, Windows).
const cap3WorkPerRead = 0.437 // GHz·s per read

// Cap3Model returns the Cap3 model for FASTA files of the given read
// count. CPU-bound, tiny files, no shared data.
func Cap3Model(readsPerFile int) AppModel {
	return AppModel{
		Name:           "cap3",
		WorkGHzSec:     cap3WorkPerRead * float64(readsPerFile),
		MemTrafficGB:   0.05, // far below any bandwidth share: never binds
		WindowsSpeedup: 1.125,
		InputMB:        0.2, // "hundreds of KB to a few MB"
		OutputMB:       0.3,
	}
}

// BLAST work calibration: ~4 GHz·s per query against the 8.7 GB NR
// database puts 64 files × 100 queries on 16 HCXL-class cores at
// ≈ 1800 s, inside Figure 8's axis.
const blastWorkPerQuery = 4.0 // GHz·s per query

// BlastModel returns the BLAST model for query files with the given
// query count. Moderately memory-sensitive: the 8 GB database wants to
// stay resident per instance.
func BlastModel(queriesPerFile int) AppModel {
	return AppModel{
		Name:             "blast",
		WorkGHzSec:       blastWorkPerQuery * float64(queriesPerFile),
		MemTrafficGB:     1.0,
		SharedMemGB:      8.0, // NR database resident size
		MissPenalty:      1.0,
		WindowsSpeedup:   1.05, // paper: Windows environments slightly better overall efficiency
		InputMB:          0.008,
		OutputMB:         0.5,
		ThreadEfficiency: 0.85,
	}
}

// GTM calibration: interpolation of a 100k-point shard streams the shard
// and the model repeatedly — 60 GB of traffic against 20 GHz·s of
// arithmetic makes the task memory-bandwidth-bound on every multi-core
// configuration, reproducing Section 6's analysis.
const (
	gtmWorkPer100k    = 20.0 // GHz·s per 100k-point shard
	gtmTrafficPer100k = 60.0 // GB per 100k-point shard
)

// GTMModel returns the GTM Interpolation model for shards of n points.
func GTMModel(pointsPerShard int) AppModel {
	scale := float64(pointsPerShard) / 100000.0
	return AppModel{
		Name:         "gtm",
		WorkGHzSec:   gtmWorkPer100k * scale,
		MemTrafficGB: gtmTrafficPer100k * scale,
		InputMB:      133 * scale, // 100k × 166 dims × 8 B
		OutputMB:     1.6 * scale, // 100k × 2 dims × 8 B
	}
}

// TaskTime returns the seconds one task needs on an instance when
// `workersOnInstance` workers run concurrently (sharing memory bandwidth
// and capacity), each task using `threads` cores of the worker's
// allotment, on a Windows or Linux platform.
//
// The model is a roofline: compute time and memory-streaming time do not
// overlap-hide each other beyond taking the max, plus a capacity penalty
// when shared data exceeds instance memory.
func (m AppModel) TaskTime(it cloud.InstanceType, workersOnInstance, threads int, windows bool) float64 {
	if workersOnInstance <= 0 {
		workersOnInstance = 1
	}
	if threads <= 0 {
		threads = 1
	}
	cpu := m.WorkGHzSec / it.ClockGHz
	if threads > 1 {
		// Intra-task threading: near-linear with an efficiency loss per
		// doubling (BLAST -num_threads behaviour).
		eff := math.Pow(m.threadEff(), math.Log2(float64(threads)))
		cpu = cpu / (float64(threads) * eff)
	}
	// Bandwidth share: all concurrent workers (each with its threads)
	// divide the instance's bandwidth. Threads within a worker share the
	// same stream, so the divisor is the worker count.
	bwShare := it.MemBandwidthGBs / float64(workersOnInstance)
	mem := 0.0
	if m.MemTrafficGB > 0 && bwShare > 0 {
		mem = m.MemTrafficGB / bwShare
	}
	t := math.Max(cpu, mem)
	if m.SharedMemGB > 0 && it.MemoryGB < m.SharedMemGB {
		t *= 1 + m.MissPenalty*(1-it.MemoryGB/m.SharedMemGB)
	}
	if windows && m.WindowsSpeedup > 1 {
		t /= m.WindowsSpeedup
	}
	return t
}

func (m AppModel) threadEff() float64 {
	if m.ThreadEfficiency <= 0 || m.ThreadEfficiency > 1 {
		return 0.9
	}
	return m.ThreadEfficiency
}

// SequentialTaskTime is the paper's T1 measurement convention: one task
// on one otherwise-idle core of the same instance, input on local disk
// (no transfers), threads = 1.
func (m AppModel) SequentialTaskTime(it cloud.InstanceType, windows bool) float64 {
	return m.TaskTime(it, 1, 1, windows)
}
