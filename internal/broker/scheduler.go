package broker

import (
	"math"
	"sort"
	"sync"
)

// The fleet scheduler is the multi-tenant arbiter the ROADMAP asked
// for: instead of every job autoscaling independently against its own
// cap, scale-up requests draw on one broker-wide instance budget.
// Tenants carry instance-budget quotas; when the shared budget is
// contended, a tenant is granted instances by deficit-weighted fair
// share — capacity that other active tenants are still short of their
// share is reserved for them, so a large tenant cannot starve a small
// one's scale-up, and a tenant at its quota is simply capped.

// scheduler tracks per-tenant running-instance usage and arbitrates
// scale-up grants.
type scheduler struct {
	mu     sync.Mutex
	quotas map[string]int // tenant → instance-budget quota (0 = uncapped)
	budget int            // broker-wide budget (0 = unlimited)
	usage  map[string]int // tenant → running instances
	jobs   map[string]int // tenant → active (running) jobs
}

func newScheduler(quotas map[string]int, budget int) *scheduler {
	q := make(map[string]int, len(quotas))
	sum := 0
	for t, n := range quotas {
		if n > 0 {
			q[t] = n
			sum += n
		}
	}
	if budget <= 0 && sum > 0 {
		// Quotas without an explicit budget: the budget is their sum, so
		// every tenant can always reach its quota and none can be starved.
		budget = sum
	}
	return &scheduler{
		quotas: q,
		budget: budget,
		usage:  make(map[string]int),
		jobs:   make(map[string]int),
	}
}

// weight is a tenant's fair-share weight: its quota, or 1 when it has
// none (unquoted tenants split contended capacity equally).
func (s *scheduler) weight(tenant string) int {
	if q := s.quotas[tenant]; q > 0 {
		return q
	}
	return 1
}

// shareLocked is tenant's deficit-weighted fair share of the budget
// among currently active tenants. Caller holds s.mu.
func (s *scheduler) shareLocked(tenant string) float64 {
	totalWeight := 0
	for t, n := range s.jobs {
		if n > 0 {
			totalWeight += s.weight(t)
		}
	}
	if s.jobs[tenant] == 0 {
		// An inactive tenant asking for its hypothetical share.
		totalWeight += s.weight(tenant)
	}
	return fairShare(s.budget, s.weight(tenant), totalWeight)
}

// fairShare returns a tenant's weighted share of an instance budget:
// budget × weight / totalWeight. It is the per-tenant generalization of
// the fixed per-job fleet cap — the multi-tenant broker grants scale-ups
// against this share when its budget is contended. A non-positive
// budget or total weight yields 0 (no constraint to express).
func fairShare(budget, weight, totalWeight int) float64 {
	if budget <= 0 || totalWeight <= 0 || weight <= 0 {
		return 0
	}
	return float64(budget) * float64(weight) / float64(totalWeight)
}

func (s *scheduler) totalLocked() int {
	n := 0
	for _, u := range s.usage {
		n += u
	}
	return n
}

// jobStarted / jobEnded maintain the active-tenant set the fair share is
// computed over.
func (s *scheduler) jobStarted(tenant string) {
	s.mu.Lock()
	s.jobs[tenant]++
	s.mu.Unlock()
}

func (s *scheduler) jobEnded(tenant string) {
	s.mu.Lock()
	if s.jobs[tenant] > 0 {
		s.jobs[tenant]--
	}
	s.mu.Unlock()
}

// acquire grants tenant up to want instances from the shared budget and
// reserves them. The grant is bounded by (1) the tenant's quota, (2) the
// budget headroom, and (3) under contention, the tenant's own deficit
// plus whatever headroom is not reserved for other tenants still below
// their fair share. Callers launch exactly the granted count and release
// what they retire.
func (s *scheduler) acquire(tenant string, want int) int {
	if want <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := want
	if q := s.quotas[tenant]; q > 0 {
		if head := q - s.usage[tenant]; head < g {
			g = head
		}
	}
	if s.budget > 0 {
		head := s.budget - s.totalLocked()
		if head < g {
			g = head
		}
		// Deficit-weighted fair share: headroom that other active tenants
		// are short of their share is reserved for their scale-ups.
		othersDeficit := 0.0
		for t, n := range s.jobs {
			if t == tenant || n == 0 {
				continue
			}
			if d := s.shareLocked(t) - float64(s.usage[t]); d > 0 {
				othersDeficit += d
			}
		}
		ownDeficit := s.shareLocked(tenant) - float64(s.usage[tenant])
		allow := math.Max(0, ownDeficit) + math.Max(0, float64(head)-othersDeficit)
		if cap := int(math.Floor(allow + 1e-9)); cap < g {
			g = cap
		}
	}
	if g < 0 {
		g = 0
	}
	s.usage[tenant] += g
	return g
}

// surplus reports how many instances tenant should surrender to
// fair-share reclaim: its usage above its own share, but only while
// some other active tenant is starved below its share. Without this, a
// tenant that saturated the budget first would hold it until its jobs
// complete — the grant path alone cannot reclaim capacity that was
// legitimately granted before the second tenant arrived. The freed
// instances cannot be re-grabbed by the over-share tenant: acquire's
// deficit reservation holds them for the starved one.
func (s *scheduler) surplus(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget <= 0 {
		return 0
	}
	over := float64(s.usage[tenant]) - s.shareLocked(tenant)
	if over <= 0 {
		return 0
	}
	starved := false
	for t, n := range s.jobs {
		if t == tenant || n == 0 {
			continue
		}
		if float64(s.usage[t]) < math.Floor(s.shareLocked(t)+1e-9) {
			starved = true
			break
		}
	}
	if !starved {
		return 0
	}
	return int(math.Ceil(over - 1e-9))
}

// release returns n instances of tenant to the shared budget.
func (s *scheduler) release(tenant string, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.usage[tenant] -= n
	if s.usage[tenant] <= 0 {
		delete(s.usage, tenant)
	}
	s.mu.Unlock()
}

// TenantStatus is one tenant's row in the broker's fleet/billing
// attribution report.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	// Quota is the configured instance budget (0 = uncapped).
	Quota int `json:"quota"`
	// Fleet is the tenant's currently running instances.
	Fleet int `json:"fleet"`
	// FairShare is the tenant's current deficit-weighted share of the
	// broker budget (0 when the budget is unlimited).
	FairShare float64 `json:"fair_share"`
	// ActiveJobs counts the tenant's running jobs.
	ActiveJobs int `json:"active_jobs"`
	// Jobs counts all of the tenant's jobs, terminal included.
	Jobs int `json:"jobs"`
	// Done and Dead aggregate task outcomes across the tenant's jobs.
	Done int `json:"done"`
	Dead int `json:"dead"`
	// HourUnits and ComputeCost attribute fleet billing to the tenant,
	// summed over its jobs' ledgers in the paper's hour-unit convention.
	HourUnits   float64 `json:"hour_units"`
	ComputeCost float64 `json:"compute_cost_usd"`
}

// TenantReport attributes fleet, task outcomes, and billing to tenants —
// the admin view of the multi-tenant control plane.
func (b *Broker) TenantReport() []TenantStatus {
	rows := make(map[string]*TenantStatus)
	for _, j := range b.Jobs() {
		st := j.Status()
		cr := j.CostReport()
		row, ok := rows[j.Tenant]
		if !ok {
			row = &TenantStatus{Tenant: j.Tenant}
			rows[j.Tenant] = row
		}
		row.Jobs++
		if st.State == StateRunning {
			row.ActiveJobs++
		}
		row.Fleet += st.Fleet
		row.Done += st.Done
		row.Dead += st.Dead
		row.HourUnits += cr.HourUnits
		row.ComputeCost += cr.ComputeCost
	}
	b.sched.mu.Lock()
	for t, row := range rows {
		row.Quota = b.sched.quotas[t]
		if b.sched.budget > 0 {
			row.FairShare = b.sched.shareLocked(t)
		}
	}
	b.sched.mu.Unlock()
	out := make([]TenantStatus, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Tenant < out[k].Tenant })
	return out
}
