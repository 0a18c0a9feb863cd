// Package hdfs simulates the Hadoop Distributed File System as the paper
// uses it: files split into blocks stored on the local disks of compute
// nodes, replicated for reliability, with block-location metadata that
// lets the MapReduce scheduler place computations near their data (the
// scheduler counts how often it managed to). A datanode can be killed;
// a block is readable while any replica's node lives.
package hdfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Every filesystem splits files into 1 MiB blocks and keeps three
// replicas of each (fewer when the cluster is smaller); replica placement
// draws from a fixed seed, so a run places the same blocks the same way.
const (
	blockSize         = 1 << 20
	replicationFactor = 3
)

// Errors returned by the filesystem.
var (
	ErrNoSuchFile   = errors.New("hdfs: no such file")
	ErrFileExists   = errors.New("hdfs: file already exists")
	ErrNoSuchNode   = errors.New("hdfs: no such datanode")
	ErrNodeDead     = errors.New("hdfs: datanode is dead")
	ErrBlockLost    = errors.New("hdfs: block lost (all replicas dead)")
	ErrClusterEmpty = errors.New("hdfs: no live datanodes")
)

// block is one replicated chunk of a file.
type block struct {
	id       string
	data     []byte
	replicas map[string]bool // node → holds replica
}

// file is the namenode's view of a path.
type file struct {
	path   string
	size   int
	blocks []*block
}

// FS is the simulated filesystem: an in-process namenode plus datanode
// states.
type FS struct {
	mu      sync.Mutex
	rng     *rand.Rand
	nodes   map[string]bool // node → alive
	order   []string        // stable node ordering
	files   map[string]*file
	blockID int
}

// NewFS creates a filesystem over the named datanodes.
func NewFS(nodes []string) *FS {
	fs := &FS{
		rng:   rand.New(rand.NewSource(0)),
		nodes: make(map[string]bool, len(nodes)),
		files: make(map[string]*file),
	}
	for _, n := range nodes {
		if !fs.nodes[n] {
			fs.order = append(fs.order, n)
		}
		fs.nodes[n] = true
	}
	return fs
}

// LiveNodes returns the names of live datanodes.
func (fs *FS) LiveNodes() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.liveNodesLocked()
}

func (fs *FS) liveNodesLocked() []string {
	var live []string
	for _, n := range fs.order {
		if fs.nodes[n] {
			live = append(live, n)
		}
	}
	return live
}

// Write stores a file, splitting it into blocks and replicating each.
// When writerNode names a live datanode, the first replica lands there
// (HDFS's write-locality rule).
func (fs *FS) Write(path string, data []byte, writerNode string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if path == "" || strings.HasSuffix(path, "/") {
		return fmt.Errorf("hdfs: invalid path %q", path)
	}
	if _, ok := fs.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrFileExists, path)
	}
	live := fs.liveNodesLocked()
	if len(live) == 0 {
		return ErrClusterEmpty
	}
	f := &file{path: path, size: len(data)}
	for off := 0; off == 0 || off < len(data); off += blockSize {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		fs.blockID++
		b := &block{
			id:       fmt.Sprintf("blk_%d", fs.blockID),
			data:     append([]byte(nil), data[off:end]...),
			replicas: make(map[string]bool),
		}
		fs.placeReplicasLocked(b, live, writerNode)
		f.blocks = append(f.blocks, b)
		if len(data) == 0 {
			break
		}
	}
	fs.files[path] = f
	return nil
}

// placeReplicasLocked chooses replica nodes: writer-local first, then
// random distinct nodes.
func (fs *FS) placeReplicasLocked(b *block, live []string, writerNode string) {
	want := replicationFactor
	if want > len(live) {
		want = len(live)
	}
	if writerNode != "" && fs.nodes[writerNode] {
		b.replicas[writerNode] = true
	}
	perm := fs.rng.Perm(len(live))
	for _, idx := range perm {
		if len(b.replicas) >= want {
			break
		}
		b.replicas[live[idx]] = true
	}
}

// Read reassembles a file from any live replica of each block.
func (fs *FS) Read(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, path)
	}
	out := make([]byte, 0, f.size)
	for _, b := range f.blocks {
		served := false
		for n := range b.replicas {
			if fs.nodes[n] {
				served = true
				break
			}
		}
		if !served {
			return nil, fmt.Errorf("%w: %s %s", ErrBlockLost, path, b.id)
		}
		out = append(out, b.data...)
	}
	return out, nil
}

// Exists reports whether the path is stored.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Locations returns, per block, the live nodes holding replicas — the
// metadata the MapReduce scheduler uses for data-locality placement.
func (fs *FS) Locations(path string) ([][]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchFile, path)
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		for n := range b.replicas {
			if fs.nodes[n] {
				out[i] = append(out[i], n)
			}
		}
		sort.Strings(out[i])
	}
	return out, nil
}

// PreferredNodes returns the live nodes holding any replica of the file,
// most-covering first. For single-block files (the paper's case) this is
// simply the replica set.
func (fs *FS) PreferredNodes(path string) ([]string, error) {
	locs, err := fs.Locations(path)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, l := range locs {
		for _, n := range l {
			counts[n]++
		}
	}
	nodes := make([]string, 0, len(counts))
	for n := range counts {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if counts[nodes[i]] != counts[nodes[j]] {
			return counts[nodes[i]] > counts[nodes[j]]
		}
		return nodes[i] < nodes[j]
	})
	return nodes, nil
}

// KillNode marks a datanode dead; its replicas become unavailable. No
// program kills a node: this is the fault the MapReduce re-execution
// tests and the locality / speculation ablations inject.
func (fs *FS) KillNode(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	alive, ok := fs.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, name)
	}
	if !alive {
		return fmt.Errorf("%w: %s", ErrNodeDead, name)
	}
	fs.nodes[name] = false
	return nil
}
