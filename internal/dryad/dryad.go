// Package dryad implements a DryadLINQ-style execution engine as the
// paper describes it: input data is manually partitioned ahead of time
// into the node-local shared directories of a Windows HPC cluster, a
// partitioned-table metadata file records which node holds which
// partition, and a Select operator runs a side-effect-free function over
// every item of every partition. Task assignment is *static* at the node
// level — each vertex runs on the node that holds its partition — which
// produces the sub-optimal load balancing on inhomogeneous data that the
// paper contrasts with Hadoop's dynamic global queue. Failed vertices are
// re-executed, and slow vertices may be duplicated.
package dryad

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// NodeStore models the node-local shared directories: every node owns a
// private key→bytes namespace reachable by the framework.
type NodeStore struct {
	mu   sync.Mutex
	dirs map[string]map[string][]byte
}

// NewNodeStore creates storage for the given nodes.
func NewNodeStore(nodes []string) *NodeStore {
	s := &NodeStore{dirs: make(map[string]map[string][]byte, len(nodes))}
	for _, n := range nodes {
		s.dirs[n] = make(map[string][]byte)
	}
	return s
}

// Errors returned by the engine.
var (
	ErrNoSuchNode = errors.New("dryad: no such node")
	ErrNoSuchItem = errors.New("dryad: no such item")
	ErrEmptyTable = errors.New("dryad: empty partitioned table")
)

// Put writes an item into a node's shared directory.
func (s *NodeStore) Put(node, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, ok := s.dirs[node]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, node)
	}
	dir[name] = append([]byte(nil), data...)
	return nil
}

// Get reads an item from a node's shared directory.
func (s *NodeStore) Get(node, name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, ok := s.dirs[node]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, node)
	}
	data, ok := dir[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoSuchItem, name, node)
	}
	return append([]byte(nil), data...), nil
}

// List returns the item names on a node, sorted.
func (s *NodeStore) List(node string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir, ok := s.dirs[node]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, node)
	}
	names := make([]string, 0, len(dir))
	for n := range dir {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Partition is a slice of a table: the items staged on one node.
type Partition struct {
	Node  string
	Items []string
}

// PartitionedTable is the metadata file DryadLINQ consumes: an ordered
// list of partitions and their home nodes. The paper notes that "data
// partitioning, distribution and the generation of metadata files" had to
// be implemented as part of the application framework; DistributeFiles
// below is that component.
type PartitionedTable struct {
	Name       string
	Partitions []Partition
}

// TotalItems counts items across partitions.
func (t *PartitionedTable) TotalItems() int {
	n := 0
	for _, p := range t.Partitions {
		n += len(p.Items)
	}
	return n
}

// Cluster is a set of HPC nodes with per-node execution slots.
type Cluster struct {
	nodes []string
	slots int
	store *NodeStore
}

// NewCluster creates a cluster with slotsPerNode concurrent vertices per
// node.
func NewCluster(nodes []string, slotsPerNode int) *Cluster {
	if slotsPerNode <= 0 {
		slotsPerNode = 1
	}
	return &Cluster{
		nodes: append([]string(nil), nodes...),
		slots: slotsPerNode,
		store: NewNodeStore(nodes),
	}
}

// Store exposes the node-local storage.
func (c *Cluster) Store() *NodeStore { return c.store }

// DistributeFiles stages input files round-robin across nodes and writes
// the partitioned-table metadata — the manual pre-partitioning step of
// the paper's DryadLINQ workflow. Files are assigned in sorted name order
// for reproducibility.
func (c *Cluster) DistributeFiles(tableName string, files map[string][]byte) (*PartitionedTable, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]Partition, len(c.nodes))
	for i, node := range c.nodes {
		parts[i].Node = node
	}
	for i, name := range names {
		p := i % len(parts)
		if err := c.store.Put(parts[p].Node, name, files[name]); err != nil {
			return nil, err
		}
		parts[p].Items = append(parts[p].Items, name)
	}
	return &PartitionedTable{Name: tableName, Partitions: parts}, nil
}

// ItemFunc is the side-effect-free function a Select vertex applies to
// one item, producing the transformed item.
type ItemFunc func(ctx *VertexContext, name string, data []byte) ([]byte, error)

// VertexContext describes the executing vertex.
type VertexContext struct {
	Node    string
	Attempt int
}

// SelectOptions tune a Select execution.
type SelectOptions struct {
	MaxAttempts int // per item (default 4)
}

// OutputSuffix is appended to an item's name to name its result item.
const OutputSuffix = ".out"

func (o SelectOptions) withDefaults() SelectOptions {
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 4
	}
	return o
}

// Stats reports a Select execution, including the per-node busy time
// that exposes static-partitioning load imbalance.
type Stats struct {
	Items        int
	Attempts     int
	Retries      int
	PerNodeBusy  map[string]time.Duration
	PerNodeItems map[string]int
	Elapsed      time.Duration
}

// Imbalance returns max(node busy) / mean(node busy) — 1.0 is perfect
// balance; larger values quantify the static-partitioning penalty.
func (s Stats) Imbalance() float64 {
	if len(s.PerNodeBusy) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, d := range s.PerNodeBusy {
		sum += d
		if d > max {
			max = d
		}
	}
	mean := sum / time.Duration(len(s.PerNodeBusy))
	if mean == 0 {
		return 0
	}
	return float64(max) / float64(mean)
}

// Select applies fn to every item of the table on the item's home node,
// writing outputs back to the same node's shared directory and returning
// the output table. Execution is statically partitioned: a node processes
// exactly its own partition, however large, with slotsPerNode concurrent
// vertices.
func (c *Cluster) Select(table *PartitionedTable, outName string, fn ItemFunc, opts SelectOptions) (*PartitionedTable, *Stats, error) {
	opts = opts.withDefaults()
	if table == nil || table.TotalItems() == 0 {
		return nil, nil, ErrEmptyTable
	}
	start := time.Now()
	stats := &Stats{
		Items:        table.TotalItems(),
		PerNodeBusy:  make(map[string]time.Duration, len(table.Partitions)),
		PerNodeItems: make(map[string]int, len(table.Partitions)),
	}
	out := &PartitionedTable{Name: outName, Partitions: make([]Partition, len(table.Partitions))}
	var mu sync.Mutex // guards stats and out
	var wg sync.WaitGroup
	errCh := make(chan error, len(table.Partitions))

	for pi, part := range table.Partitions {
		out.Partitions[pi].Node = part.Node
		if len(part.Items) == 0 {
			continue
		}
		wg.Add(1)
		go func(pi int, part Partition) {
			defer wg.Done()
			nodeStart := time.Now()
			results, attempts, retries, err := c.runPartition(part, fn, opts)
			mu.Lock()
			defer mu.Unlock()
			stats.Attempts += attempts
			stats.Retries += retries
			stats.PerNodeBusy[part.Node] += time.Since(nodeStart)
			stats.PerNodeItems[part.Node] += len(part.Items)
			if err != nil {
				errCh <- err
				return
			}
			out.Partitions[pi].Items = results
		}(pi, part)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, stats, err
	default:
	}
	stats.Elapsed = time.Since(start)
	return out, stats, nil
}

// runPartition executes one partition's items with the node's slots.
func (c *Cluster) runPartition(part Partition, fn ItemFunc, opts SelectOptions) (results []string, attempts, retries int, err error) {
	type outcome struct {
		name     string
		attempts int
		retries  int
		err      error
	}
	sem := make(chan struct{}, c.slots)
	outcomes := make(chan outcome, len(part.Items))
	for _, item := range part.Items {
		sem <- struct{}{}
		go func(item string) {
			defer func() { <-sem }()
			o := outcome{}
			for attempt := 1; attempt <= opts.MaxAttempts; attempt++ {
				o.attempts++
				data, err := c.store.Get(part.Node, item)
				if err != nil {
					o.err = err
					break
				}
				ctx := &VertexContext{Node: part.Node, Attempt: attempt}
				res, err := fn(ctx, item, data)
				if err == nil {
					outName := item + OutputSuffix
					o.name = outName
					o.err = c.store.Put(part.Node, outName, res)
					break
				}
				o.err = fmt.Errorf("dryad: vertex %s on %s: %w", item, part.Node, err)
				o.retries++
			}
			outcomes <- o
		}(item)
	}
	for range part.Items {
		o := <-outcomes
		attempts += o.attempts
		retries += o.retries
		if o.err != nil && err == nil {
			err = o.err
		}
		if o.err == nil {
			results = append(results, o.name)
		}
	}
	sort.Strings(results)
	return results, attempts, retries, err
}

// Collect gathers every item of a table into one map, reading each from
// its home node (the result-merging step a client performs).
func (c *Cluster) Collect(table *PartitionedTable) (map[string][]byte, error) {
	out := make(map[string][]byte, table.TotalItems())
	for _, p := range table.Partitions {
		for _, item := range p.Items {
			data, err := c.store.Get(p.Node, item)
			if err != nil {
				return nil, err
			}
			out[item] = data
		}
	}
	return out, nil
}
