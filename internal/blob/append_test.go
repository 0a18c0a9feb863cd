package blob

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Append: the journal primitive.
// ---------------------------------------------------------------------------

func TestAppendCreatesAndExtends(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("j"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Append("j", "log", []byte("one\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("first append version = %d, want 1", v)
	}
	v, err = s.Append("j", "log", []byte("two\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("second append version = %d, want 2", v)
	}
	got, err := s.GetConsistent("j", "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one\ntwo\n" {
		t.Errorf("appended object = %q", got)
	}
}

func TestAppendIsReadYourWrites(t *testing.T) {
	clk := &fakeClock{now: time.Unix(100, 0)}
	s := NewStore(Config{ConsistencyWindow: time.Hour, Clock: clk})
	if err := s.CreateBucket("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("j", "log", []byte("entry\n")); err != nil {
		t.Fatal(err)
	}
	// An ordinary Get inside the consistency window must still see the
	// appended tail: journals are read back immediately on recovery.
	got, err := s.Get("j", "log", 0, -1)
	if err != nil {
		t.Fatalf("append hidden by consistency window: %v", err)
	}
	if string(got) != "entry\n" {
		t.Errorf("got %q", got)
	}
	// Appending to an object created by Put also publishes the whole tail.
	if err := s.Put("j", "mixed", []byte("head")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("j", "mixed", []byte("+tail")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get("j", "mixed", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "head+tail" {
		t.Errorf("got %q", got)
	}
}

func TestAppendMissingBucket(t *testing.T) {
	s := NewStore(Config{})
	if _, err := s.Append("nope", "k", []byte("x")); !errors.Is(err, ErrNoSuchBucket) {
		t.Errorf("err = %v, want ErrNoSuchBucket", err)
	}
}

func TestAppendConcurrentLosesNothing(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("j"); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Append("j", "log", []byte(fmt.Sprintf("w%d-%d\n", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := s.GetConsistent("j", "log")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte("\n")); n != writers*per {
		t.Errorf("journal holds %d lines, want %d", n, writers*per)
	}
	if _, v, err := s.Stat("j", "log"); err != nil || v != writers*per {
		t.Errorf("version = %d (err %v), want %d", v, err, writers*per)
	}
}

// ---------------------------------------------------------------------------
// PutIf: compare-and-swap.
// ---------------------------------------------------------------------------

func TestPutIfCreateAndSwap(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	// 0 = must not exist.
	v, err := s.PutIf("b", "k", []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Errorf("create version = %d, want 1", v)
	}
	// A second conditional create loses.
	if _, err := s.PutIf("b", "k", []byte("v1b"), 0); !errors.Is(err, ErrPreconditionFailed) {
		t.Errorf("conditional re-create: %v, want ErrPreconditionFailed", err)
	}
	// Swap at the current version wins and bumps it.
	v, err = s.PutIf("b", "k", []byte("v2"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("swap version = %d, want 2", v)
	}
	// A stale writer (still holding version 1) loses.
	if _, err := s.PutIf("b", "k", []byte("v2b"), 1); !errors.Is(err, ErrPreconditionFailed) {
		t.Errorf("stale swap: %v, want ErrPreconditionFailed", err)
	}
	if got, _ := s.GetConsistent("b", "k"); string(got) != "v2" {
		t.Errorf("object = %q, want v2", got)
	}
}

func TestPutIfExactlyOneWinnerUnderContention(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	const contenders = 16
	wins := make(chan int, contenders)
	var wg sync.WaitGroup
	for c := 0; c < contenders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := s.PutIf("b", "lock", []byte(fmt.Sprintf("owner-%d", c)), 0); err == nil {
				wins <- c
			}
		}(c)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for c := range wins {
		winners = append(winners, c)
	}
	if len(winners) != 1 {
		t.Fatalf("%d CAS winners, want exactly 1", len(winners))
	}
	got, _ := s.GetConsistent("b", "lock")
	if string(got) != fmt.Sprintf("owner-%d", winners[0]) {
		t.Errorf("lock owner = %q, winner was %d", got, winners[0])
	}
}

// ---------------------------------------------------------------------------
// Billing-before-validation regressions: requests rejected client-side
// (empty names) bill nothing; rejected writes transfer nothing.
// ---------------------------------------------------------------------------

func TestCreateBucketEmptyNameNotBilled(t *testing.T) {
	s := NewStore(Config{})
	before := s.Usage()
	if err := s.CreateBucket(""); err == nil {
		t.Fatal("empty bucket name accepted")
	}
	if after := s.Usage(); after != before {
		t.Errorf("usage changed by rejected CreateBucket: %+v -> %+v", before, after)
	}
}

func TestDeleteBucketEmptyNameNotBilled(t *testing.T) {
	s := NewStore(Config{})
	before := s.Usage()
	if err := s.DeleteBucket(""); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v", err)
	}
	if after := s.Usage(); after != before {
		t.Errorf("usage changed by rejected DeleteBucket: %+v -> %+v", before, after)
	}
}

func TestPutMissingBucketBillsNoIngress(t *testing.T) {
	s := NewStore(Config{})
	if err := s.Put("nope", "k", []byte("0123456789")); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("err = %v", err)
	}
	u := s.Usage()
	if u.PutRequests != 1 {
		t.Errorf("PutRequests = %d, want 1 (the request did travel)", u.PutRequests)
	}
	if u.BytesIn != 0 || u.BytesStored != 0 {
		t.Errorf("rejected Put counted bytes: in=%d stored=%d", u.BytesIn, u.BytesStored)
	}
}

func TestPutIfLoserBillsNoIngress(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutIf("b", "k", []byte("winner"), 0); err != nil {
		t.Fatal(err)
	}
	before := s.Usage()
	if _, err := s.PutIf("b", "k", []byte("loser-payload"), 0); !errors.Is(err, ErrPreconditionFailed) {
		t.Fatal(err)
	}
	u := s.Usage()
	if u.PutRequests != before.PutRequests+1 {
		t.Errorf("PutRequests = %d, want %d", u.PutRequests, before.PutRequests+1)
	}
	if u.BytesIn != before.BytesIn || u.BytesStored != before.BytesStored {
		t.Errorf("losing CAS counted bytes: %+v -> %+v", before, u)
	}
}

func TestAppendAccounting(t *testing.T) {
	s := NewStore(Config{})
	if err := s.CreateBucket("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("j", "log", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("j", "log", []byte("678")); err != nil {
		t.Fatal(err)
	}
	u := s.Usage()
	if u.PutRequests != 1+2 { // CreateBucket + two appends
		t.Errorf("PutRequests = %d, want 3", u.PutRequests)
	}
	if u.BytesIn != 8 || u.BytesStored != 8 {
		t.Errorf("BytesIn=%d BytesStored=%d, want 8/8", u.BytesIn, u.BytesStored)
	}
	if err := s.Delete("j", "log"); err != nil {
		t.Fatal(err)
	}
	if u := s.Usage(); u.BytesStored != 0 {
		t.Errorf("BytesStored = %d after delete, want 0", u.BytesStored)
	}
}
