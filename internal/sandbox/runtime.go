package sandbox

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
)

// RuntimeConfig sizes the simulated host the containers run on.
type RuntimeConfig struct {
	// Cores is the number of CPU cores; the scheduler runs at most
	// Cores-1 parallel containers [52].
	Cores int
	// MemCapMB and IOCapMBps are host capacities; when the aggregate
	// demand of parallel containers would exceed a capacity, the
	// scheduler reduces parallelism further.
	MemCapMB  int
	IOCapMBps int
	// Seed drives deterministic per-container randomness (corruption,
	// stale reads); container i uses Seed+i.
	Seed int64
}

// Runtime creates and tracks containers and provides the parallel
// experiment scheduler.
type Runtime struct {
	cfg RuntimeConfig

	mu        sync.Mutex
	nextID    int
	active    map[string]*Container
	created   int
	destroyed int
	leaks     int
}

// NewRuntime creates a runtime for the given host configuration.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	return &Runtime{cfg: cfg, active: make(map[string]*Container)}
}

// Create instantiates a container from an image, copying its files. The
// container seed derives from the creation counter; the id and the seed
// are allocated under a single critical section so concurrent Create
// calls can never derive the same seed.
func (r *Runtime) Create(img Image) *Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.createLocked(img, r.cfg.Seed+int64(r.nextID+1))
}

// CreateSeeded instantiates a container with an explicit RNG seed, so
// parallel experiment batches stay deterministic regardless of worker
// scheduling order.
func (r *Runtime) CreateSeeded(img Image, seed int64) *Container {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.createLocked(img, seed)
}

// createLocked allocates the container id and registers the container;
// callers must hold r.mu.
func (r *Runtime) createLocked(img Image, seed int64) *Container {
	r.nextID++
	r.created++
	c := &Container{
		ID:     img.Name + "-" + strconv.Itoa(r.nextID),
		Image:  img.Name,
		FS:     NewFS(),
		memMB:  img.MemMB,
		ioMBps: img.IOMBps,
		seed:   seed,
		state:  StateCreated,
		logs:   make(map[string]*bytes.Buffer),
		env:    make(map[string]any),
	}
	for p, d := range img.Files {
		c.FS.preload(p, d)
	}
	for p, d := range img.Overlay {
		c.FS.preload(p, d)
	}
	r.active[c.ID] = c
	return c
}

// Destroy tears a container down, clearing its filesystem and counting
// any leaked resources (files left behind by the experiment) before
// reclaiming them — the paper's cleanup guarantee (§IV-B).
func (r *Runtime) Destroy(c *Container) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.active[c.ID]; !ok {
		return fmt.Errorf("sandbox: container %s is not active", c.ID)
	}
	c.mu.Lock()
	if c.state == StateDestroyed {
		c.mu.Unlock()
		return fmt.Errorf("sandbox: container %s already destroyed", c.ID)
	}
	c.state = StateDestroyed
	c.mu.Unlock()
	r.leaks += c.FS.Len()
	c.FS.Clear()
	delete(r.active, c.ID)
	r.destroyed++
	return nil
}

// Stats reports runtime counters.
type Stats struct {
	Created        int `json:"created"`
	Destroyed      int `json:"destroyed"`
	Active         int `json:"active"`
	LeakedReclaims int `json:"leakedReclaims"`
}

// Stats returns a snapshot of runtime counters.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{Created: r.created, Destroyed: r.destroyed, Active: len(r.active), LeakedReclaims: r.leaks}
}

// MaxParallel computes the number of parallel containers allowed for an
// image: N−1 cores, further reduced when the aggregate memory or I/O
// demand would exceed host capacity.
func (r *Runtime) MaxParallel(img Image) int {
	workers := r.cfg.Cores - 1
	if workers < 1 {
		workers = 1
	}
	if img.MemMB > 0 && r.cfg.MemCapMB > 0 {
		if byMem := r.cfg.MemCapMB / img.MemMB; byMem < workers {
			workers = byMem
		}
	}
	if img.IOMBps > 0 && r.cfg.IOCapMBps > 0 {
		if byIO := r.cfg.IOCapMBps / img.IOMBps; byIO < workers {
			workers = byIO
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunBatch executes one job per index in [0, n) with at most MaxParallel
// workers for the image, collecting results in order. The job function
// receives the index; it is responsible for creating and destroying its
// own container.
func RunBatch[T any](r *Runtime, img Image, n int, job func(i int) T) []T {
	workers := r.MaxParallel(img)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]T, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}
