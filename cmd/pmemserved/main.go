// Command pmemserved is the long-lived analytics serving daemon: it keeps
// Table 3 inputs and serialized CSR graphs resident in a shared registry
// and serves concurrent kernel executions over HTTP/JSON, with a bounded
// job scheduler and an exact result cache built on the engine's
// byte-identical determinism. Graphs are mutable through batched edge
// updates (POST /v1/graphs/{name}/updates — graphgen -updates emits
// replayable streams): each batch becomes a new sealed epoch, the graph's
// cached results are invalidated, and jobs submitted with
// "incremental": true recompute cc/pr from the prior epoch's retained
// seed. With -data-dir every loaded graph is durable: batches append to a
// per-graph checksummed WAL before their epoch becomes visible, POST
// /v1/graphs/{name}/checkpoint (and the automatic overlay compaction)
// seals a .csrz snapshot and truncates the log, and a restart replays
// snapshot + surviving log records to reconstruct the latest epoch —
// torn or truncated tails are detected and dropped. Admission is
// class-based (-classes): each job class gets its own bounded queue and
// weighted share of the workers, requests may carry "class" and
// "deadline_ms", and jobs whose deadline expires while queued are shed
// with a structured 503 instead of executed. See the README's
// "pmemserved HTTP API" reference and DESIGN.md "Serving layer" /
// "Streaming updates & incremental kernels" / "Durability & epoch
// compaction" / "Serving under load".
//
// Usage:
//
//	pmemserved [-addr :8097] [-machine optane|dram|entropy]
//	           [-scale small|full] [-workers 4]
//	           [-classes interactive:4:256,batch:1:512]
//	           [-cache-mb 256] [-seed-mb 256] [-preload clueweb12,kron30]
//	           [-data-dir /var/lib/pmemserved] [-compact-div 20]
//	           [-shards 16]
//
// Jobs submitted with "shards": N run as scatter/gather BSP supersteps
// over N in-process shard workers (bitwise-identical outputs to an
// unsharded run of the same round-based kernel); -shards caps the
// accepted width. SIGINT/SIGTERM stop the listener, let in-flight requests
// (including ?wait=1 waiters) finish, drain the scheduler and exit 0;
// SIGKILL is the crash path -data-dir recovery exists for.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmemgraph/internal/gen"
	"pmemgraph/internal/memsim"
	"pmemgraph/internal/server"
)

func main() {
	addr := flag.String("addr", ":8097", "listen address")
	machine := flag.String("machine", "optane", "simulated platform: optane, dram or entropy")
	scaleFlag := flag.String("scale", "small", "input/machine scale: full or small")
	workers := flag.Int("workers", server.DefaultWorkers, "max concurrent kernel executions")
	classesFlag := flag.String("classes", "",
		"admission classes as name[:weight[:queuecap]],... (default interactive:4:256,batch:1:512)")
	cacheMB := flag.Int64("cache-mb", server.DefaultStoreBytes>>20, "max megabytes of cached results")
	seedMB := flag.Int64("seed-mb", server.DefaultStoreBytes>>20, "max megabytes of retained incremental seeds")
	preload := flag.String("preload", "", "comma-separated Table 3 inputs to load at startup")
	dataDir := flag.String("data-dir", "", "directory for durable graph state (WAL + snapshots); empty = in-memory only")
	compactDiv := flag.Int64("compact-div", server.DefaultCompactDiv,
		"compact an overlay epoch once it holds more than |E|/div entries; negative disables")
	maxShards := flag.Int("shards", server.DefaultMaxShards,
		"max shard workers a job may request via \"shards\" (each is a full simulated machine)")
	flag.Parse()

	var scale gen.Scale
	switch *scaleFlag {
	case "small":
		scale = gen.ScaleSmall
	case "full":
		scale = gen.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "pmemserved: unknown scale %q (want small or full)\n", *scaleFlag)
		os.Exit(2)
	}
	var cfg memsim.MachineConfig
	switch *machine {
	case "optane":
		cfg = memsim.OptaneMachine()
	case "dram":
		cfg = memsim.DRAMMachine()
	case "entropy":
		cfg = memsim.EntropyMachine()
	default:
		fmt.Fprintf(os.Stderr, "pmemserved: unknown machine %q (want optane, dram or entropy)\n", *machine)
		os.Exit(2)
	}
	cfg = memsim.Scaled(cfg, scale.Div())

	var classes []server.ClassConfig
	if *classesFlag != "" {
		var err error
		if classes, err = server.ParseClasses(*classesFlag); err != nil {
			fmt.Fprintf(os.Stderr, "pmemserved: %v\n", err)
			os.Exit(2)
		}
	}

	srv := server.New(server.Config{
		Machine:    cfg,
		Workers:    *workers,
		Classes:    classes,
		CacheBytes: *cacheMB << 20,
		SeedBytes:  *seedMB << 20,
		DataDir:    *dataDir,
		CompactDiv: *compactDiv,
		MaxShards:  *maxShards,
	})

	if *dataDir != "" {
		recovered, err := srv.Recover()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pmemserved: recovering %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		for _, info := range recovered {
			fmt.Printf("recovered %s: %d nodes, %d edges, %d replayed batches\n",
				info.Name, info.Nodes, info.Edges, info.Updates)
		}
	}

	if *preload != "" {
		for _, input := range strings.Split(*preload, ",") {
			input = strings.TrimSpace(input)
			if input == "" {
				continue
			}
			info, err := srv.Registry().LoadInput(input, input, scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pmemserved: preloading %s: %v\n", input, err)
				os.Exit(1)
			}
			fmt.Printf("loaded %s: %d nodes, %d edges, %.1f MB CSR\n",
				info.Name, info.Nodes, info.Edges, float64(info.CSRBytes)/(1<<20))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	listenErr := make(chan error, 1)
	go func() { listenErr <- httpSrv.ListenAndServe() }()
	fmt.Printf("pmemserved: serving %s (scale %s) on %s with %d workers\n",
		cfg.Name, *scaleFlag, *addr, *workers)
	select {
	case err := <-listenErr:
		fmt.Fprintf(os.Stderr, "pmemserved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
		stop() // a second signal kills outright instead of waiting out the drain
	}
	// Stop accepting, then let in-flight requests finish: ?wait=1 waiters
	// hold their connections until their jobs complete, and queued and
	// running jobs keep draining on the scheduler's workers meanwhile.
	if err := httpSrv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pmemserved: shutdown: %v\n", err)
	}
	srv.Close()
}
