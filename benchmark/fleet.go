package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"sync"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
)

const (
	shardCount  = 2
	storePrefix = "t"
	// defaultCache is the store's own default reader-cache budget,
	// pinned so that an inherited SPARSEART_FRAGCACHE_BUDGET cannot
	// change what is measured.
	defaultCache = int64(store.DefaultCacheBudget)
)

// fleetOpts says how to boot a fleet over the shard directories under
// dir.
type fleetOpts struct {
	dir       string
	sc        *scale
	create    bool      // new stores; otherwise reopen what dir holds
	cache     int64     // reader-cache budget of each shard
	compactAt int       // > 0: background compaction at that many fragments
	clients   int       // client connections to the router
	rec       *recorder // non-nil: time the seams (backends and file systems)
	obs       bool      // enable the program's own obs registries
}

// shard is one storage server: a Chunked store on OSFS behind a
// serve.Server on a loopback port. With seams the file system and the
// backend are wrapped; with registries store and server report to reg.
type shard struct {
	fs    *timedFS
	store *store.Chunked
	reg   *obs.Registry
	srv   *serve.Server
}

// fleet is the whole system in one process, every hop over real
// loopback TCP: clients → router server → Router → shard servers.
type fleet struct {
	shards    []*shard
	router    *serve.Router
	routerReg *obs.Registry
	routerSrv *serve.Server
	clients   []*serve.Client
	serving   sync.WaitGroup
}

// shardPort is shard 0's loopback port. The router places tiles by
// hashing the shard addresses, so the shards must come back at the
// same addresses after a reopen, and must have the same addresses on
// every run for the tile-to-shard split (and with it the load on each
// shard) to be the same. The ports sit below the ephemeral range.
const shardPort = 20711

// listen starts srv on a loopback port: port itself, or the next free
// one in steps of shardCount if it is taken (0 = any free port).
func (f *fleet) listen(srv *serve.Server, port int) (string, error) {
	var ln net.Listener
	var err error
	for try := 0; try < 16; try++ {
		if ln, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err == nil || port == 0 {
			break
		}
		port += shardCount
	}
	if err != nil {
		return "", err
	}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns once Close closes ln; an accept error ends the run through the clients
	}()
	return ln.Addr().String(), nil
}

func bootFleet(o fleetOpts) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	var addrs []string
	for i := 0; i < shardCount; i++ {
		sh := &shard{}
		f.shards = append(f.shards, sh)
		osfs, err := fsim.NewOSFS(filepath.Join(o.dir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return nil, err
		}
		var fsys fsim.FS = osfs
		opts := []store.Option{store.WithReaderCache(o.cache)}
		if o.compactAt > 0 {
			opts = append(opts, store.WithBackgroundCompaction(o.compactAt))
		}
		if o.rec != nil {
			sh.fs = newTimedFS(osfs, o.rec, i)
			fsys = sh.fs
		}
		if o.obs {
			sh.reg = obs.New()
			opts = append(opts, store.WithObs(sh.reg))
		}
		if o.create {
			sh.store, err = store.NewChunked(fsys, storePrefix, core.CSF, o.sc.Shape, o.sc.Tile, opts...)
		} else {
			sh.store, err = store.OpenChunked(fsys, storePrefix, opts...)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		back := serve.ChunkedBackend(sh.store)
		if o.rec != nil {
			tb := &timedBackend{Backend: back, rec: o.rec, level: levelShard, shard: int8(i)}
			sh.fs.owner = tb
			back = tb
		}
		sh.srv = serve.NewServer(back, serve.Config{Obs: sh.reg})
		addr, err := f.listen(sh.srv, shardPort+i)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	if o.obs {
		f.routerReg = obs.New()
	}
	if f.router, err = serve.NewRouter(addrs, f.routerReg); err != nil {
		return nil, err
	}
	var back serve.Backend = f.router
	if o.rec != nil {
		back = &timedBackend{Backend: back, rec: o.rec, level: levelRouter, shard: -1}
	}
	f.routerSrv = serve.NewServer(back, serve.Config{Obs: f.routerReg})
	addr, err := f.listen(f.routerSrv, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < o.clients; i++ {
		cl, err := serve.Dial(addr)
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, cl)
	}
	return f, nil
}

// Close stops the fleet from the outside in and waits for every server
// goroutine and every background compaction to end.
func (f *fleet) Close() error {
	var errs []error
	for _, cl := range f.clients {
		_ = cl.Close()
	}
	if f.routerSrv != nil {
		errs = append(errs, f.routerSrv.Close())
	}
	if f.router != nil {
		errs = append(errs, f.router.Close())
	}
	for _, sh := range f.shards {
		if sh.srv != nil {
			errs = append(errs, sh.srv.Close())
		}
	}
	f.serving.Wait()
	for _, sh := range f.shards {
		if sh.store != nil {
			errs = append(errs, sh.store.Close())
		}
	}
	return errors.Join(errs...)
}

// epochs sums the shards' manifest epochs.
func (f *fleet) epochs() uint64 {
	var n uint64
	for _, sh := range f.shards {
		n += sh.store.Epoch()
	}
	return n
}

// fsCounts sums the traced shards' file-system totals.
func (f *fleet) fsCounts() fsCounts {
	var c fsCounts
	for _, sh := range f.shards {
		c = c.plus(sh.fs.counts(), 1)
	}
	return c
}

// storedBytes is the size of every file under the shard directories.
// It may run beside a live store: a file that compaction removes
// between the listing and the stat is simply no longer there.
func storedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
