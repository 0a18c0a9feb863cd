package queue

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// A received Message.Body is the service's one stored copy of the body
// and is the receiver's to read for as long as it likes: nothing the
// service does later — deleting the message, for this consumer or
// another, or storing new ones — may change it.

// TestBodyPoolRecyclingPreservesContents churns one queue through
// many send/receive/delete cycles of varied sizes and verifies every
// delivered body matches what was sent.
func TestBodyPoolRecyclingPreservesContents(t *testing.T) {
	s := NewService(Config{})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	type held struct {
		sent, got []byte // got is the Body the receive returned, kept as is
		receipt   string
	}
	var inFlight []held
	intact := func(when string) {
		t.Helper()
		for _, h := range inFlight {
			if !bytes.Equal(h.got, h.sent) {
				t.Fatalf("%s: a held body reads %q, sent as %q", when, h.got, h.sent)
			}
		}
	}
	for i := 0; i < 500; i++ {
		size := 1 << uint(rng.Intn(12)) // 1B .. 2KiB
		body := bytes.Repeat([]byte{byte(i)}, size)
		body = append(body, []byte(fmt.Sprintf("|%d", i))...)
		if _, err := s.SendMessage("q", body); err != nil {
			t.Fatal(err)
		}
		m, ok, err := s.ReceiveMessage("q", time.Hour)
		if err != nil || !ok {
			t.Fatalf("receive %d: ok=%v err=%v", i, ok, err)
		}
		inFlight = append(inFlight, held{body, m.Body, m.ReceiptHandle})
		// Ack a random earlier message so deletes interleave with live
		// receives.
		if len(inFlight) > 4 {
			j := rng.Intn(len(inFlight))
			if err := s.DeleteMessage("q", inFlight[j].receipt); err != nil {
				t.Fatalf("delete %d: %v", i, err)
			}
			inFlight = append(inFlight[:j], inFlight[j+1:]...)
		}
		intact(fmt.Sprintf("cycle %d", i))
		visible, _, err := s.ApproximateCount("q")
		if err != nil || visible != 0 {
			t.Fatalf("cycle %d: %d visible, err=%v", i, visible, err)
		}
	}
	for _, h := range inFlight {
		if err := s.DeleteMessage("q", h.receipt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBodyPoolDisabledWithDuplicates: with duplicate injection on, a
// delivery hands the same stored buffer to two receivers without hiding
// the message; one receiver's delete leaves the other's body alone.
func TestBodyPoolDisabledWithDuplicates(t *testing.T) {
	s := NewService(Config{DuplicateProb: 1.0})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	want := []byte("survives the other copy's delete")
	if _, err := s.SendMessage("q", want); err != nil {
		t.Fatal(err)
	}
	// DuplicateProb 1 delivers without hiding: both receives see the
	// same message, each with its own (superseding) receipt.
	first, ok, err := s.ReceiveMessage("q", time.Hour)
	if err != nil || !ok {
		t.Fatal(err)
	}
	second, ok, err := s.ReceiveMessage("q", time.Hour)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if err := s.DeleteMessage("q", second.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	// Sends of the same size would land in the buffer, had the delete
	// freed it for reuse.
	if err := s.CreateQueue("churn"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := s.SendMessage("churn", bytes.Repeat([]byte{0xee}, len(want))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Body, want) {
		t.Fatalf("duplicate holder's body corrupted after the other copy was deleted: %q", first.Body)
	}
}

// TestBodySurvivesDeleteByAnotherConsumer: a consumer whose lease lapsed
// still holds the body it received. A second consumer receives and
// deletes the message, and a thousand same-size sends follow; the first
// consumer's bytes are unchanged — what a worker relies on when it
// decodes message k of a batch only after executing message k−1.
func TestBodySurvivesDeleteByAnotherConsumer(t *testing.T) {
	clock := NewFakeClock(time.Unix(0, 0))
	s := NewService(Config{Clock: clock})
	if err := s.CreateQueue("q"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("task"), 10)
	if _, err := s.SendMessage("q", want); err != nil {
		t.Fatal(err)
	}
	first, ok, err := s.ReceiveMessage("q", time.Second)
	if err != nil || !ok {
		t.Fatalf("first receive: ok=%v err=%v", ok, err)
	}
	clock.Advance(2 * time.Second) // the first consumer's lease lapses
	second, ok, err := s.ReceiveMessage("q", time.Minute)
	if err != nil || !ok {
		t.Fatalf("second receive: ok=%v err=%v", ok, err)
	}
	if err := s.DeleteMessage("q", second.ReceiptHandle); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.SendMessage("q", bytes.Repeat([]byte{byte(i)}, len(want))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Body, want) {
		t.Fatalf("the first consumer's body changed under it: %q", first.Body)
	}
}
