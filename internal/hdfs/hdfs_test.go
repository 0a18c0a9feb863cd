package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node%02d", i)
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := NewFS(nodes(4), Config{BlockSize: 8, Seed: 1})
	data := []byte("hello distributed world")
	if err := fs.Write("/data/a.txt", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("/data/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Read = %q", got)
	}
}

func TestWriteEmptyFile(t *testing.T) {
	fs := NewFS(nodes(3), Config{Seed: 1})
	if err := fs.Write("/empty", nil, ""); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
}

func TestFileLifecycleErrors(t *testing.T) {
	fs := NewFS(nodes(3), Config{Seed: 1})
	if err := fs.Write("", nil, ""); err == nil {
		t.Error("empty path accepted")
	}
	if err := fs.Write("/dir/", nil, ""); err == nil {
		t.Error("directory-like path accepted")
	}
	fs.Write("/f", []byte("x"), "")
	if err := fs.Write("/f", []byte("y"), ""); !errors.Is(err, ErrFileExists) {
		t.Errorf("duplicate write: %v", err)
	}
	if _, err := fs.Read("/missing"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("missing read: %v", err)
	}
	if !fs.Exists("/f") || fs.Exists("/missing") {
		t.Error("Exists disagrees with what was written")
	}
}

func TestReplicationFactorRespected(t *testing.T) {
	fs := NewFS(nodes(5), Config{BlockSize: 4, ReplicationFactor: 3, Seed: 2})
	fs.Write("/f", bytes.Repeat([]byte("ab"), 10), "")
	locs, err := fs.Locations("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 5 { // 20 bytes / 4-byte blocks
		t.Fatalf("%d blocks, want 5", len(locs))
	}
	for i, l := range locs {
		if len(l) != 3 {
			t.Errorf("block %d has %d replicas, want 3", i, len(l))
		}
		seen := map[string]bool{}
		for _, n := range l {
			if seen[n] {
				t.Errorf("block %d has duplicate replica node %s", i, n)
			}
			seen[n] = true
		}
	}
}

func TestReplicationCappedByClusterSize(t *testing.T) {
	fs := NewFS(nodes(2), Config{ReplicationFactor: 3, Seed: 3})
	fs.Write("/f", []byte("data"), "")
	locs, _ := fs.Locations("/f")
	if len(locs[0]) != 2 {
		t.Errorf("replicas = %d, want 2 (cluster size)", len(locs[0]))
	}
}

func TestWriterLocality(t *testing.T) {
	fs := NewFS(nodes(6), Config{ReplicationFactor: 2, Seed: 4})
	for i := 0; i < 10; i++ {
		fs.Write(fmt.Sprintf("/f%d", i), []byte("block"), "node03")
	}
	for i := 0; i < 10; i++ {
		locs, _ := fs.Locations(fmt.Sprintf("/f%d", i))
		found := false
		for _, n := range locs[0] {
			if n == "node03" {
				found = true
			}
		}
		if !found {
			t.Errorf("file %d has no replica on the writer node", i)
		}
	}
}

func TestPreferredNodes(t *testing.T) {
	fs := NewFS(nodes(5), Config{ReplicationFactor: 2, Seed: 6})
	fs.Write("/f", []byte("x"), "node02")
	pref, err := fs.PreferredNodes("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(pref) != 2 {
		t.Fatalf("preferred = %v", pref)
	}
	has := false
	for _, n := range pref {
		if n == "node02" {
			has = true
		}
	}
	if !has {
		t.Errorf("writer node missing from preferred set %v", pref)
	}
}

func TestNodeFailureFallbackToReplica(t *testing.T) {
	fs := NewFS(nodes(4), Config{ReplicationFactor: 2, Seed: 7})
	data := []byte("replicated payload")
	fs.Write("/f", data, "node00")
	if err := fs.KillNode("node00"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("/f")
	if err != nil {
		t.Fatalf("read after failure: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted after node failure")
	}
}

func TestBlockLostWhenAllReplicasDead(t *testing.T) {
	fs := NewFS(nodes(2), Config{ReplicationFactor: 2, Seed: 8})
	fs.Write("/f", []byte("x"), "")
	fs.KillNode("node00")
	fs.KillNode("node01")
	if _, err := fs.Read("/f"); !errors.Is(err, ErrBlockLost) {
		t.Errorf("read with all replicas dead: %v", err)
	}
}

func TestKillReviveErrors(t *testing.T) {
	fs := NewFS(nodes(2), Config{Seed: 9})
	if err := fs.KillNode("ghost"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("kill ghost: %v", err)
	}
	fs.KillNode("node00")
	if err := fs.KillNode("node00"); !errors.Is(err, ErrNodeDead) {
		t.Errorf("double kill: %v", err)
	}
	if got := fs.LiveNodes(); len(got) != 1 || got[0] != "node01" {
		t.Errorf("live nodes after the kill: %v", got)
	}
}

func TestListWithPrefix(t *testing.T) {
	fs := NewFS(nodes(3), Config{Seed: 11})
	for _, p := range []string{"/in/a", "/in/b", "/out/a"} {
		fs.Write(p, []byte("x"), "")
	}
	got := fs.List("/in/")
	if len(got) != 2 || got[0] != "/in/a" || got[1] != "/in/b" {
		t.Errorf("List = %v", got)
	}
}

func TestNoLiveNodesWrite(t *testing.T) {
	fs := NewFS(nodes(1), Config{Seed: 12})
	fs.KillNode("node00")
	if err := fs.Write("/f", []byte("x"), ""); !errors.Is(err, ErrClusterEmpty) {
		t.Errorf("write to dead cluster: %v", err)
	}
}

// Property: any file written can be read back identically through any
// reader node, for random sizes and block sizes.
func TestQuickRoundTripAnyBlockSize(t *testing.T) {
	f := func(seed int64, sizeHint uint16, blockHint uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeHint) % 5000
		blockSize := int(blockHint)%512 + 1
		data := make([]byte, size)
		rng.Read(data)
		fs := NewFS(nodes(4), Config{BlockSize: blockSize, Seed: seed})
		if err := fs.Write("/f", data, "node01"); err != nil {
			return false
		}
		got, err := fs.Read("/f")
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodesStableOrder(t *testing.T) {
	fs := NewFS([]string{"b", "a", "b", "c"}, Config{})
	got := fs.LiveNodes()
	want := []string{"b", "a", "c"}
	if len(got) != 3 {
		t.Fatalf("Nodes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Nodes = %v, want %v", got, want)
		}
	}
}
