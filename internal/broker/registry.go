package broker

import (
	"time"

	"repro/internal/apps"
	"repro/internal/blast"
	"repro/internal/cap3"
	"repro/internal/classiccloud"
	"repro/internal/cloud"
	"repro/internal/perfmodel"
)

// ExecutorFactory builds the executor for one job from the job's shared
// data (the BLAST database, the trained GTM model). The factory runs
// once per job submission; the returned executor is shared by every
// instance the autoscaler launches.
type ExecutorFactory func(shared map[string][]byte) (classiccloud.Executor, error)

// DefaultRegistry maps the paper's three applications, each at its
// kernel's default options, to factories (internal/apps defines their
// input, output and shared-data formats):
//
//	cap3   — FASTA shotgun reads in, assembled contigs out; no shared data
//	blast  — query files in, hit reports out; shared data is the
//	         database, one or more FASTA documents
//	gtm    — encoded point shards in, embedded coordinates out; shared
//	         data is one Marshal()ed trained model
func DefaultRegistry() map[string]ExecutorFactory {
	return RegistryOf(
		apps.Cap3(cap3.Options{}),
		apps.Blast(blast.Options{}),
		apps.GTM(),
	)
}

// RegistryOf builds the registry serving the given applications by
// name. A factory opens its application on the job's shared data as the
// broker received it with the submission (or re-read it on recovery).
func RegistryOf(list ...apps.App) map[string]ExecutorFactory {
	reg := make(map[string]ExecutorFactory, len(list))
	for _, app := range list {
		reg[app.Name] = func(shared map[string][]byte) (classiccloud.Executor, error) {
			process, err := app.Open(shared)
			if err != nil {
				return nil, err
			}
			return classiccloud.FuncExecutor{
				AppName: app.Name,
				Fn: func(task classiccloud.Task, input []byte) ([]byte, error) {
					return process(task.ID, input)
				},
			}, nil
		}
	}
	return reg
}

// planningModel returns the calibrated paper workload model used for
// cost-aware instance selection, when one exists for the app. The
// planner only needs to be roughly right: the autoscaler corrects
// fleet size from observed load once the job runs.
func planningModel(app string) (perfmodel.AppModel, bool) {
	switch app {
	case "cap3":
		// Table 4's workload shape: 458-read FASTA files.
		return perfmodel.Cap3Model(458), true
	case "blast":
		// Figure 7's workload shape: 100-query files.
		return perfmodel.BlastModel(100), true
	case "gtm":
		// Figure 12's workload shape: 100k-point shards.
		return perfmodel.GTMModel(100000), true
	}
	return perfmodel.AppModel{}, false
}

// planningModelFor resolves an app's planning model, preferring a
// Config.PlanningModels override over the built-in paper calibrations.
func (b *Broker) planningModelFor(app string) (perfmodel.AppModel, bool) {
	if m, ok := b.cfg.PlanningModels[app]; ok {
		return m, true
	}
	return planningModel(app)
}

// PlanFleet picks the cheapest (instance type, fleet size) meeting the
// target makespan across the catalog, simulating Azure types under the
// Azure Classic Cloud framework and everything else under EC2's
// (bare-metal entries with no hourly price are not purchasable and are
// skipped). When no configuration qualifies it returns the fastest one
// found with MeetsTarget=false; ok is false only for an empty catalog.
func PlanFleet(app perfmodel.AppModel, nFiles int, target time.Duration,
	catalog []cloud.InstanceType, maxInstances int) (perfmodel.Selection, bool) {
	return planFleet(func(f perfmodel.Framework, types []cloud.InstanceType) perfmodel.Selection {
		return perfmodel.PickCheapest(app, f, nFiles, target, types, maxInstances)
	}, catalog)
}

// PlanFleetCalibrated is PlanFleet against a calibration overlay: the
// same provider-grouped sweep, with every candidate simulated under its
// observation-corrected curves. It is the selection the broker's
// mid-job re-planner runs once the calibration catalog has enough
// samples to distrust the static model.
func PlanFleetCalibrated(cal perfmodel.CalibratedModel, nFiles int, target time.Duration,
	catalog []cloud.InstanceType, maxInstances int) (perfmodel.Selection, bool) {
	return planFleet(func(f perfmodel.Framework, types []cloud.InstanceType) perfmodel.Selection {
		return cal.PickCheapest(f, nFiles, target, types, maxInstances)
	}, catalog)
}

// planFleet runs one provider-grouped sweep and merges the group
// winners: a selection meeting the target beats one that does not;
// among qualifiers the cheaper wins; among non-qualifiers the faster.
func planFleet(pick func(perfmodel.Framework, []cloud.InstanceType) perfmodel.Selection,
	catalog []cloud.InstanceType) (perfmodel.Selection, bool) {
	var azure, ec2 []cloud.InstanceType
	for _, it := range catalog {
		if it.CostPerHour <= 0 {
			continue
		}
		if it.Provider == cloud.Azure {
			azure = append(azure, it)
		} else {
			ec2 = append(ec2, it)
		}
	}
	groups := []struct {
		framework perfmodel.Framework
		types     []cloud.InstanceType
	}{
		{perfmodel.ClassicEC2, ec2},
		{perfmodel.ClassicAzure, azure},
	}
	var best perfmodel.Selection
	have := false
	for _, group := range groups {
		if len(group.types) == 0 {
			continue
		}
		sel := pick(group.framework, group.types)
		if !have {
			best, have = sel, true
			continue
		}
		switch {
		case sel.MeetsTarget && !best.MeetsTarget:
			best = sel
		case !sel.MeetsTarget && best.MeetsTarget:
			// keep best
		case sel.MeetsTarget:
			if sel.Outcome.Bill.ComputeCost < best.Outcome.Bill.ComputeCost {
				best = sel
			}
		default:
			// Neither meets the target: fall back to the faster one.
			if sel.Outcome.Makespan < best.Outcome.Makespan {
				best = sel
			}
		}
	}
	return best, have
}
