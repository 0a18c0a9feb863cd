package broker

import (
	"time"

	"repro/internal/apps"
	"repro/internal/blast"
	"repro/internal/cap3"
	"repro/internal/classiccloud"
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

// plan runs cost-aware selection for an app with a planning model (a
// Config.PlanningModels override, else the built-in paper calibration):
// the cheapest (type, fleet) predicted to finish nFiles tasks within
// target, on the model calibrated by observed mean service times — none
// at admission, where every ratio is 1 and the plan is the static one —
// and the per-task service time that plan expects on the chosen type.
func (b *Broker) plan(app string, observed map[string]time.Duration, nFiles int,
	target time.Duration, maxInstances int) (perfmodel.Selection, time.Duration, bool) {
	model, ok := b.cfg.PlanningModels[app]
	if !ok {
		if model, ok = planningModel(app); !ok {
			return perfmodel.Selection{}, 0, false
		}
	}
	cal := perfmodel.Calibrate(model, b.cfg.WorkersPerInstance, observed, b.cfg.Catalog)
	sel, ok := cal.Plan(nFiles, target, b.cfg.Catalog, maxInstances)
	return sel, cal.ExpectedTaskTime(sel.InstanceType()), ok
}
