package dryad

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("hpc%02d", i)
	}
	return out
}

func inputFiles(n int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("in%03d", i)] = []byte(fmt.Sprintf("payload %d", i))
	}
	return files
}

func TestNodeStoreBasics(t *testing.T) {
	s := NewNodeStore([]string{"a", "b"})
	if err := s.Put("a", "x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a", "x")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("b", "x"); !errors.Is(err, ErrNoSuchItem) {
		t.Errorf("cross-node get: %v (items are node-local)", err)
	}
	if _, err := s.Get("ghost", "x"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("ghost node: %v", err)
	}
	if err := s.Put("ghost", "x", nil); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("put ghost: %v", err)
	}
	names, err := s.List("a")
	if err != nil || len(names) != 1 || names[0] != "x" {
		t.Errorf("List = %v, %v", names, err)
	}
}

func TestDistributeFilesRoundRobin(t *testing.T) {
	c := NewCluster(nodeNames(3), 1)
	table, err := c.DistributeFiles("input", inputFiles(10))
	if err != nil {
		t.Fatal(err)
	}
	if table.TotalItems() != 10 {
		t.Fatalf("total items = %d", table.TotalItems())
	}
	if len(table.Partitions) != 3 {
		t.Fatalf("%d partitions", len(table.Partitions))
	}
	// Round robin over 10 items and 3 nodes: sizes 4,3,3.
	sizes := []int{len(table.Partitions[0].Items), len(table.Partitions[1].Items), len(table.Partitions[2].Items)}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Errorf("partition sizes = %v", sizes)
	}
	// Every item must be resident on its partition's node.
	for _, p := range table.Partitions {
		for _, item := range p.Items {
			if _, err := c.Store().Get(p.Node, item); err != nil {
				t.Errorf("item %s not on node %s: %v", item, p.Node, err)
			}
		}
	}
}

func TestSelectTransformsEveryItem(t *testing.T) {
	c := NewCluster(nodeNames(4), 2)
	files := inputFiles(13)
	table, err := c.DistributeFiles("in", files)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := c.Select(table, "out", func(ctx *VertexContext, name string, data []byte) ([]byte, error) {
		return bytes.ToUpper(data), nil
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalItems() != 13 {
		t.Fatalf("output items = %d", out.TotalItems())
	}
	if stats.Items != 13 || stats.Attempts != 13 {
		t.Errorf("stats = %+v", stats)
	}
	results, err := c.Collect(out)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		got, ok := results[name+".out"]
		if !ok {
			t.Errorf("missing output for %s", name)
			continue
		}
		if !bytes.Equal(got, bytes.ToUpper(data)) {
			t.Errorf("%s: got %q", name, got)
		}
	}
}

func TestSelectStaysOnHomeNode(t *testing.T) {
	c := NewCluster(nodeNames(3), 2)
	table, _ := c.DistributeFiles("in", inputFiles(9))
	home := map[string]string{}
	for _, p := range table.Partitions {
		for _, item := range p.Items {
			home[item] = p.Node
		}
	}
	_, _, err := c.Select(table, "out", func(ctx *VertexContext, name string, data []byte) ([]byte, error) {
		if home[name] != ctx.Node {
			return nil, fmt.Errorf("item %s ran on %s, home %s", name, ctx.Node, home[name])
		}
		return data, nil
	}, SelectOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVertexRetryOnTransientFailure(t *testing.T) {
	c := NewCluster(nodeNames(2), 1)
	table, _ := c.DistributeFiles("in", inputFiles(4))
	var failures atomic.Int64
	_, stats, err := c.Select(table, "out", func(ctx *VertexContext, name string, data []byte) ([]byte, error) {
		if name == "in001" && failures.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return data, nil
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retries != 2 {
		t.Errorf("Retries = %d, want 2", stats.Retries)
	}
}

func TestVertexPermanentFailure(t *testing.T) {
	c := NewCluster(nodeNames(2), 1)
	table, _ := c.DistributeFiles("in", inputFiles(4))
	_, _, err := c.Select(table, "out", func(ctx *VertexContext, name string, data []byte) ([]byte, error) {
		if name == "in002" {
			return nil, errors.New("permanent")
		}
		return data, nil
	}, SelectOptions{MaxAttempts: 3})
	if err == nil {
		t.Fatal("permanent vertex failure should fail the Select")
	}
	if !strings.Contains(err.Error(), "in002") {
		t.Errorf("err = %v", err)
	}
}

func TestStaticPartitioningImbalance(t *testing.T) {
	// Two nodes; all the expensive items land on node 0 by construction.
	// Static partitioning cannot rebalance, so node 0's busy time
	// dominates — the inhomogeneous-data effect the paper reports.
	c := NewCluster(nodeNames(2), 1)
	files := map[string][]byte{}
	// Round-robin over sorted names sends even-numbered files to node 0
	// and odd-numbered to node 1; make the even ones expensive so all the
	// slow work lands on one partition.
	for i := 0; i < 8; i++ {
		content := "fast"
		if i%2 == 0 {
			content = "slow"
		}
		files[fmt.Sprintf("a%d", i)] = []byte(content)
		files[fmt.Sprintf("b%d", i)] = []byte(content)
	}
	table, _ := c.DistributeFiles("in", files)
	_, stats, err := c.Select(table, "out", func(ctx *VertexContext, name string, data []byte) ([]byte, error) {
		if string(data) == "slow" {
			time.Sleep(10 * time.Millisecond)
		}
		return data, nil
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if imb := stats.Imbalance(); imb < 1.2 {
		t.Errorf("imbalance = %.2f, want > 1.2 under skewed static partitions", imb)
	}
}

func TestSelectEmptyTable(t *testing.T) {
	c := NewCluster(nodeNames(2), 1)
	if _, _, err := c.Select(&PartitionedTable{}, "out", nil, SelectOptions{}); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty table: %v", err)
	}
	if _, _, err := c.Select(nil, "out", nil, SelectOptions{}); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("nil table: %v", err)
	}
}

func TestCollectMissingItem(t *testing.T) {
	c := NewCluster(nodeNames(1), 1)
	bad := &PartitionedTable{Partitions: []Partition{{Node: "hpc00", Items: []string{"ghost"}}}}
	if _, err := c.Collect(bad); err == nil {
		t.Error("collect of missing item should error")
	}
}

func TestSlotsLimitConcurrency(t *testing.T) {
	c := NewCluster(nodeNames(1), 2)
	table, _ := c.DistributeFiles("in", inputFiles(8))
	var cur, peak atomic.Int64
	_, _, err := c.Select(table, "out", func(ctx *VertexContext, name string, data []byte) ([]byte, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return data, nil
	}, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrency = %d, want ≤ 2 slots", got)
	}
}

func TestStoreReturnsCopies(t *testing.T) {
	s := NewNodeStore([]string{"n"})
	data := []byte("abc")
	s.Put("n", "k", data)
	data[0] = 'X'
	got, _ := s.Get("n", "k")
	if string(got) != "abc" {
		t.Error("Put did not copy input")
	}
	got[1] = 'Y'
	again, _ := s.Get("n", "k")
	if string(again) != "abc" {
		t.Error("Get did not copy output")
	}
}
