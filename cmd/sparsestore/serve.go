package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/obs"
	obsserve "sparseart/internal/obs/serve"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// startListener implements the global -listen flag: enable the
// process-wide registry and serve it on addr for the duration of the
// command. The returned stop function closes the server (commands are
// short-lived; the last scrape wins).
func startListener(addr string) (stop func(), err error) {
	obs.Enable()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "serving telemetry on http://%s/metrics\n", ln.Addr())
	srv := &http.Server{Handler: obsserve.New(nil).Handler()}
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// configSlowLog applies the -slowlog / -slowlog-file flags: thresholdMS
// "" leaves the log off, "0" logs every query, any other integer is a
// threshold in milliseconds.
func configSlowLog(reg *obs.Registry, thresholdMS, file string) (err error) {
	sl := reg.SlowLog()
	if thresholdMS != "" {
		ms, err := strconv.ParseInt(thresholdMS, 10, 64)
		if err != nil || ms < 0 {
			return fmt.Errorf("-slowlog: want a millisecond count >= 0, got %q", thresholdMS)
		}
		sl.SetThreshold(time.Duration(ms) * time.Millisecond)
	}
	if file != "" {
		f, err := os.OpenFile(file, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		sl.SetSink(f) // process-lived, like the registry itself
	}
	return nil
}

// writeAddrFile records a bound address for scripts using ":0" ports.
func writeAddrFile(path, addr string) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(addr+"\n"), 0o644)
}

// openServeBackend opens (or creates) the store under dir and wraps it
// as a serve.Backend: -create with a -tile builds a tiled store,
// -create without one a flat store, and without -create Open reads
// whichever layout is there.
func openServeBackend(dir string, opts []store.Option, create, shapeSpec, tileSpec string) (serve.Backend, func() error, error) {
	osfs, err := fsim.NewOSFS(dir)
	if err != nil {
		return nil, nil, err
	}
	var st *store.Store
	if create != "" {
		kind, err := core.ParseKind(create)
		if err != nil {
			return nil, nil, err
		}
		if shapeSpec == "" {
			return nil, nil, fmt.Errorf("serve: -create needs -shape")
		}
		shape, err := parseShape(shapeSpec)
		if err != nil {
			return nil, nil, err
		}
		st, err = createStore(osfs, kind, shape, tileSpec, opts)
		if err != nil {
			return nil, nil, err
		}
	} else if st, err = store.Open(osfs, "tensor", opts...); err != nil {
		return nil, nil, err
	}
	return serve.StoreBackend(st), st.Close, nil
}

// runServe serves a store: always its telemetry over HTTP (Prometheus
// text on /metrics, the Snapshot JSON on /snapshot, the span timeline
// on /trace, pprof under /debug/pprof/), and — with -data-addr — its data
// over the wire protocol: reads, writes, deletes, and push-down
// kernels with per-request deadlines and bounded-in-flight
// back-pressure. -create KIND -shape S [-tile T] initializes the store
// first, which is how a fresh shard process boots.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	addr := fs.String("addr", "127.0.0.1:0", "HTTP telemetry listen address")
	addrFile := fs.String("addr-file", "", "write the bound telemetry address to this file once listening (for scripts using -addr :0)")
	dataAddr := fs.String("data-addr", "", "wire-protocol data listen address (empty: telemetry only)")
	dataAddrFile := fs.String("data-addr-file", "", "write the bound data address to this file once listening")
	create := fs.String("create", "", "create the store first with this organization (needs -shape; -tile makes it chunked)")
	shapeSpec := fs.String("shape", "", "tensor shape for -create, comma-separated")
	tileSpec := fs.String("tile", "", "tile extents for -create, comma-separated (chunked store)")
	maxInflight := fs.Int("max-inflight", 0, "bound on concurrently executing data requests (0: default)")
	readall := fs.Bool("readall", false, "run one whole-tensor region read after opening, under a sampled trace, so the scrape shows read-path metrics and spans")
	slowlog := fs.String("slowlog", "", "slow-query threshold in ms — queries at least this slow land in /debug/slowlog (0 logs every query; empty: off)")
	slowlogFile := fs.String("slowlog-file", "", "also append slow-query JSONL lines to this file")
	traceSample := fs.Float64("trace-sample", 0, "probability that a data request without a caller trace starts a sampled trace (0: off)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("serve: -dir is required")
	}

	reg := obs.Enable()
	reg.SetProc("shard:" + *dir)
	if err := configSlowLog(reg, *slowlog, *slowlogFile); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	opts, err := cacheOptions()
	if err != nil {
		return err
	}
	backend, closeStore, err := openServeBackend(*dir, opts, *create, *shapeSpec, *tileSpec)
	if err != nil {
		return err
	}
	defer closeStore()
	if *readall {
		info, err := backend.Info(context.Background())
		if err != nil {
			return err
		}
		region, err := tensor.NewRegion(info.Shape, make([]uint64, info.Shape.Dims()), info.Shape)
		if err != nil {
			return err
		}
		// A sampled root trace, so the read's spans reach /trace.
		ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace(true))
		if _, _, err := backend.Query(ctx, store.QueryRequest{Region: &region, AsOf: store.AsOfLatest}); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving telemetry for %s on http://%s/metrics\n", *dir, ln.Addr())

	var dataSrv *serve.Server
	if *dataAddr != "" {
		dataLn, err := net.Listen("tcp", *dataAddr)
		if err != nil {
			return err
		}
		if err := writeAddrFile(*dataAddrFile, dataLn.Addr().String()); err != nil {
			return err
		}
		dataSrv = serve.NewServer(backend, serve.Config{MaxInFlight: *maxInflight, Obs: reg, TraceSample: *traceSample})
		fmt.Fprintf(os.Stderr, "serving data for %s on %s\n", *dir, dataLn.Addr())
		go func() {
			if err := dataSrv.Serve(dataLn); err != nil {
				fmt.Fprintln(os.Stderr, "sparsestore: data server:", err)
			}
		}()
		defer dataSrv.Close()
	}

	srv := &http.Server{Handler: obsserve.New(reg).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "sparsestore: %v, shutting down\n", s)
		srv.Close()
		<-errc
		return nil
	case err := <-errc:
		return err
	}
}
