package broker

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/classiccloud"
	"repro/internal/queue"
)

// ---------------------------------------------------------------------------
// Scheduler arbitration: pure grant/release tests.
// ---------------------------------------------------------------------------

func TestSchedulerQuotaCapsTenant(t *testing.T) {
	s := newScheduler(map[string]int{"alice": 3}, 0)
	s.jobStarted("alice")
	if g := s.acquire("alice", 5); g != 3 {
		t.Errorf("grant = %d, want 3 (quota)", g)
	}
	if g := s.acquire("alice", 1); g != 0 {
		t.Errorf("grant at quota = %d, want 0", g)
	}
	s.release("alice", 1)
	if g := s.acquire("alice", 2); g != 1 {
		t.Errorf("grant after release = %d, want 1", g)
	}
}

func TestSchedulerUnquotedUnbudgetedIsUnlimited(t *testing.T) {
	s := newScheduler(nil, 0)
	s.jobStarted("anyone")
	if g := s.acquire("anyone", 100); g != 100 {
		t.Errorf("grant = %d, want 100 (no quota, no budget)", g)
	}
}

func TestSchedulerBudgetDefaultsToQuotaSum(t *testing.T) {
	s := newScheduler(map[string]int{"alice": 6, "bob": 2}, 0)
	if s.budget != 8 {
		t.Errorf("budget = %d, want 8 (sum of quotas)", s.budget)
	}
}

// A tenant that grabs everything first cannot starve a later tenant:
// with budget = sum of quotas, every tenant can always reach its quota.
func TestSchedulerAtQuotaTenantCannotStarveOther(t *testing.T) {
	s := newScheduler(map[string]int{"alice": 6, "bob": 2}, 0)
	s.jobStarted("alice")
	// Alice saturates before bob even has a job.
	got := 0
	for i := 0; i < 10; i++ {
		got += s.acquire("alice", 2)
	}
	if got != 6 {
		t.Fatalf("alice acquired %d, want 6 (quota)", got)
	}
	// Bob arrives at a full-looking broker and still gets his quota.
	s.jobStarted("bob")
	if g := s.acquire("bob", 2); g != 2 {
		t.Errorf("bob's grant = %d, want 2: alice at quota must not starve him", g)
	}
	// And alice stays capped.
	if g := s.acquire("alice", 1); g != 0 {
		t.Errorf("alice over quota granted %d", g)
	}
}

// Under a contended budget the fair share reserves capacity for active
// tenants below their share.
func TestSchedulerContendedBudgetReservesDeficits(t *testing.T) {
	// Budget 8 shared by alice (weight 6) and bob (weight 2): shares are
	// 6 and 2. Alice asking for everything up front gets only her share
	// while bob is active and below his.
	s := newScheduler(map[string]int{"alice": 6, "bob": 2}, 8)
	s.jobStarted("alice")
	s.jobStarted("bob")
	if g := s.acquire("alice", 8); g != 6 {
		t.Errorf("alice's grant = %d, want 6 (her fair share / quota)", g)
	}
	if g := s.acquire("bob", 8); g != 2 {
		t.Errorf("bob's grant = %d, want 2", g)
	}
}

// ---------------------------------------------------------------------------
// Fair-share convergence under FakeClock: two tenants with quotas 6 and
// 2 drive real autoscale policy decisions (cooldowns timed by the fake
// clock) against one scheduler; the fleet split must converge to 3:1,
// and the tenant at quota must not starve the other's scale-up.
// ---------------------------------------------------------------------------

func TestFairShareConvergesUnderFakeClock(t *testing.T) {
	clk := queue.NewFakeClock(time.Unix(50_000, 0))
	sched := newScheduler(map[string]int{"alice": 6, "bob": 2}, 0) // budget = 8
	policy := AutoscalePolicy{
		MinInstances:       1,
		MaxInstances:       8,
		BacklogPerInstance: 1, // saturating: backlog always wants max
		ScaleUpStep:        2,
		ScaleUpCooldown:    2 * time.Second,
		ScaleDownCooldown:  time.Hour, // never scale down during the test
	}.withDefaults()

	type sim struct {
		tenant string
		fleet  int
		lastUp time.Time
	}
	// Bob first in the loop order: grant order must not matter.
	tenants := []*sim{{tenant: "bob"}, {tenant: "alice"}}
	for _, s := range tenants {
		sched.jobStarted(s.tenant)
	}
	for tick := 0; tick < 40; tick++ {
		clk.Advance(time.Second)
		for _, s := range tenants {
			d := policy.Decide(Observation{
				Now: clk.Now(), Visible: 1000, Fleet: s.fleet, LastScaleUp: s.lastUp,
			})
			if d.Delta <= 0 {
				continue
			}
			if g := sched.acquire(s.tenant, d.Delta); g > 0 {
				s.fleet += g
				s.lastUp = clk.Now()
			}
		}
	}
	bob, alice := tenants[0], tenants[1]
	if alice.fleet != 6 || bob.fleet != 2 {
		t.Fatalf("converged split alice=%d bob=%d, want 6:2 (3:1)", alice.fleet, bob.fleet)
	}
	// Alice is at quota; her next decision is denied while bob, if he
	// lost an instance, gets it back immediately.
	if g := sched.acquire("alice", 2); g != 0 {
		t.Errorf("alice over quota granted %d", g)
	}
	sched.release("bob", 1)
	if g := sched.acquire("bob", 1); g != 1 {
		t.Errorf("bob's re-grant = %d, want 1: alice at quota must not starve him", g)
	}
}

// A tenant that saturated the whole budget before a second tenant
// arrived must surrender capacity down to its fair share: the reclaim
// path, without which a first-comer starves everyone else until its
// jobs finish.
func TestSchedulerSurplusReclaimsFromFirstComer(t *testing.T) {
	s := newScheduler(nil, 4) // budget only, equal weights
	s.jobStarted("alice")
	if g := s.acquire("alice", 4); g != 4 {
		t.Fatalf("alice's initial grant = %d, want the whole budget", g)
	}
	if n := s.surplus("alice"); n != 0 {
		t.Errorf("surplus = %d with no other tenant, want 0", n)
	}
	s.jobStarted("bob")
	// Bob gets nothing yet — but alice is now over her share of 2 while
	// bob is starved, so she must surrender 2.
	if g := s.acquire("bob", 2); g != 0 {
		t.Errorf("bob's grant before reclaim = %d, want 0", g)
	}
	if n := s.surplus("alice"); n != 2 {
		t.Errorf("alice's surplus = %d, want 2", n)
	}
	// As alice releases, the deficit reservation hands the capacity to
	// bob, not back to alice.
	s.release("alice", 1)
	if g := s.acquire("alice", 1); g != 0 {
		t.Errorf("alice re-grabbed released capacity: %d", g)
	}
	if g := s.acquire("bob", 1); g != 1 {
		t.Errorf("bob's grant after release = %d, want 1", g)
	}
	s.release("alice", 1)
	if g := s.acquire("bob", 1); g != 1 {
		t.Errorf("bob's second grant = %d, want 1", g)
	}
	// Balanced at 2/2: no surplus anywhere, no further grants.
	if n := s.surplus("alice"); n != 0 {
		t.Errorf("alice's surplus at balance = %d, want 0", n)
	}
	if g := s.acquire("alice", 1); g != 0 {
		t.Errorf("alice over share granted %d", g)
	}
}

// End-to-end reclaim: tenant A saturates a quota-less budget, tenant B
// submits later, and the running fleets converge to an even split.
func TestBrokerReclaimsBudgetFromFirstComer(t *testing.T) {
	slow := map[string]ExecutorFactory{
		"slow": func(map[string][]byte) (classiccloud.Executor, error) {
			return classiccloud.FuncExecutor{
				AppName: "slow",
				Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
					time.Sleep(20 * time.Millisecond)
					return input, nil
				},
			}, nil
		},
	}
	b := New(Config{
		Env:          testEnv(),
		Registry:     slow,
		TickInterval: 5 * time.Millisecond,
		FleetBudget:  4, // no quotas: equal weights
		Autoscale: AutoscalePolicy{
			MinInstances: 1, MaxInstances: 4, BacklogPerInstance: 1,
			ScaleUpStep: 4, ScaleDownCooldown: time.Hour,
		},
	})
	defer b.Close()
	submit := func(tenant string) *Job {
		files := make(map[string][]byte, 400)
		for i := 0; i < 400; i++ {
			files[fmt.Sprintf("%s-%03d", tenant, i)] = []byte("x")
		}
		j, err := b.Submit(JobRequest{App: "slow", Tenant: tenant, Files: files})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ja := submit("alice")
	// Let alice take the whole budget before bob exists.
	deadline := time.Now().Add(10 * time.Second)
	for ja.fleetSize() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("alice never saturated: fleet=%d", ja.fleetSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
	jb := submit("bob")
	for {
		fa, fb := ja.fleetSize(), jb.fleetSize()
		if fa == 2 && fb == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet split alice=%d bob=%d never rebalanced to 2:2", fa, fb)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Fair share end-to-end: two tenants submit saturating jobs to one
// broker and the running fleets converge to the 3:1 quota split.
// ---------------------------------------------------------------------------

func TestBrokerFairShareAcrossTenants(t *testing.T) {
	slow := map[string]ExecutorFactory{
		"slow": func(map[string][]byte) (classiccloud.Executor, error) {
			return classiccloud.FuncExecutor{
				AppName: "slow",
				Fn: func(_ classiccloud.Task, input []byte) ([]byte, error) {
					time.Sleep(20 * time.Millisecond)
					return input, nil
				},
			}, nil
		},
	}
	b := New(Config{
		Env:          testEnv(),
		Registry:     slow,
		TickInterval: 5 * time.Millisecond,
		TenantQuotas: map[string]int{"alice": 6, "bob": 2}, // budget = 8
		Autoscale: AutoscalePolicy{
			MinInstances:       1,
			MaxInstances:       8,
			BacklogPerInstance: 1, // both jobs want the whole budget
			ScaleUpStep:        4,
			ScaleDownCooldown:  time.Hour,
		},
	})
	defer b.Close()

	submit := func(tenant string) *Job {
		files := make(map[string][]byte, 400)
		for i := 0; i < 400; i++ {
			files[fmt.Sprintf("%s-%03d", tenant, i)] = []byte("x")
		}
		j, err := b.Submit(JobRequest{App: "slow", Tenant: tenant, Files: files})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ja := submit("alice")
	jb := submit("bob")

	// Both jobs saturate; the split must converge to quota proportions
	// 6:2 and hold.
	deadline := time.Now().Add(15 * time.Second)
	for {
		fa, fb := ja.fleetSize(), jb.fleetSize()
		if fa == 6 && fb == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet split alice=%d bob=%d never reached 6:2", fa, fb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fa := ja.fleetSize(); fa != 6 {
		t.Errorf("alice fleet = %d, want 6", fa)
	}
	// The per-tenant attribution report sees the same split.
	report := b.TenantReport()
	if len(report) != 2 {
		t.Fatalf("tenant report rows = %d, want 2: %+v", len(report), report)
	}
	for _, row := range report {
		switch row.Tenant {
		case "alice":
			if row.Fleet != 6 || row.Quota != 6 || row.FairShare != 6 {
				t.Errorf("alice row = %+v, want fleet/quota/share 6", row)
			}
		case "bob":
			if row.Fleet != 2 || row.Quota != 2 || row.FairShare != 2 {
				t.Errorf("bob row = %+v, want fleet/quota/share 2", row)
			}
		default:
			t.Errorf("unexpected tenant %q", row.Tenant)
		}
		if row.ActiveJobs != 1 {
			t.Errorf("%s active jobs = %d, want 1", row.Tenant, row.ActiveJobs)
		}
	}
}

func TestFleetUtilization(t *testing.T) {
	if got := fleetUtilization(30*time.Minute, time.Hour); got != 0.5 {
		t.Errorf("FleetUtilization = %v, want 0.5", got)
	}
	if got := fleetUtilization(2*time.Hour, time.Hour); got != 1 {
		t.Errorf("FleetUtilization clamp = %v, want 1", got)
	}
	if got := fleetUtilization(time.Hour, 0); got != 0 {
		t.Errorf("FleetUtilization with zero allocation = %v, want 0", got)
	}
}

func TestTasksPerDollar(t *testing.T) {
	if got := tasksPerDollar(4096, 16.32); got <= 250 || got >= 252 {
		t.Errorf("TasksPerDollar = %v, want ≈ 251", got)
	}
	if got := tasksPerDollar(10, 0); got != 0 {
		t.Errorf("TasksPerDollar free compute = %v, want 0", got)
	}
}
