// Command s2worker runs one S2 worker as a standalone process serving the
// sidecar RPC protocol over TCP. Start several workers, then point the s2
// CLI (or the library's Options.WorkerAddrs) at their addresses:
//
//	s2worker -listen 127.0.0.1:7001 &
//	s2worker -listen 127.0.0.1:7002 &
//	s2 -configs DIR -workers-at 127.0.0.1:7001,127.0.0.1:7002
//
// The controller sends each worker its segment of the network during
// Setup, together with the goroutine pool size and the deadline/retry
// policy for peer calls; workers dial each other directly for shadow-node
// route pulls and symbolic packet deliveries.
//
// On SIGINT/SIGTERM the worker drains: it stops accepting new RPCs,
// finishes the in-flight ones (up to -grace), and exits 0. The controller
// sees subsequent calls fail transiently and, with recovery enabled,
// re-partitions this worker's segment onto the survivors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"s2/internal/core"
	"s2/internal/obs"
	"s2/internal/sidecar"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP address for the worker's sidecar")
	grace := flag.Duration("grace", 10*time.Second, "max time to finish in-flight RPCs on SIGINT/SIGTERM")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /healthz, /progress, /debug/flightrecorder, /debug/dashboard, and /debug/pprof for this worker on this address")
	flightLog := flag.String("flight-log", "", "also write flight-recorder dumps (SIGQUIT) to this file")
	newLogger := obs.LogFlags("info")
	flag.Parse()

	logger, err := newLogger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2worker:", err)
		os.Exit(1)
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2worker:", err)
		os.Exit(1)
	}
	w := core.NewWorker()
	w.SetLogger(logger)
	srv := sidecar.NewServer(w)

	// Tracing is always on: spans land in a bounded export ring that costs
	// nothing unless a controller harvests it over PullSpans, and the flight
	// recorder keeps the last page of structured events for post-mortems.
	tracer := obs.NewTracer()
	tracer.StartExport()
	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
	}
	w.SetObservability(tracer, reg)

	if *obsAddr != "" {
		srv.SetRPCHook(obs.RPCInstrument(reg, "server", nil))
		bytesTotal := reg.Counter(obs.MetricRPCBytes,
			"Bytes moved over sidecar RPC connections.", "role", "dir")
		bytesTotal.SetFunc(func() float64 { return float64(srv.BytesRead()) }, "server", "in")
		bytesTotal.SetFunc(func() float64 { return float64(srv.BytesWritten()) }, "server", "out")
		obs.RegisterProcessVitals(reg)
		// Local history ring: the worker samples its own registry so its
		// /debug/dashboard sparklines work even without a controller
		// harvesting it.
		hist := obs.NewHistory()
		stop := hist.Start(5*time.Second, func() map[string]float64 { return reg.Snapshot() })
		defer stop()
		isrv, err := obs.ServeIntrospection(*obsAddr, obs.ServerOptions{
			Registry: reg,
			Health: func() any {
				return map[string]any{"role": "worker", "listen": lis.Addr().String()}
			},
			Progress: func() any {
				return map[string]any{
					"rpc_bytes_in":  srv.BytesRead(),
					"rpc_bytes_out": srv.BytesWritten(),
				}
			},
			Flight: w.FlightRecorder(),
			Dashboard: &obs.Dashboard{
				Health: func() any {
					return map[string]any{"role": "worker", "listen": lis.Addr().String()}
				},
				History: hist,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "s2worker:", err)
			os.Exit(1)
		}
		defer isrv.Close()
		fmt.Printf("s2worker introspection on http://%s/metrics\n", isrv.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		logger.LogAttrs(context.Background(), slog.LevelInfo, "draining on signal",
			slog.String("signal", sig.String()), slog.Duration("grace", *grace))
		srv.Shutdown(*grace)
	}()

	// SIGQUIT is the post-mortem path: dump the flight recorder and exit
	// immediately without draining — the controller salvages what it can.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		<-quit
		fmt.Fprintln(os.Stderr, "s2worker: SIGQUIT — flight recorder dump:")
		w.FlightRecorder().WriteTo(os.Stderr)
		if *flightLog != "" {
			if f, err := os.Create(*flightLog); err == nil {
				w.FlightRecorder().WriteTo(f)
				f.Close()
			}
		}
		os.Exit(2)
	}()

	fmt.Printf("s2worker listening on %s\n", lis.Addr())
	if err := srv.Serve(lis); err != nil {
		fmt.Fprintln(os.Stderr, "s2worker:", err)
		os.Exit(1)
	}
	// Serve returns nil when the listener was closed by Shutdown: a clean,
	// drained exit.
}
