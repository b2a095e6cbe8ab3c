package s2

import (
	"flag"
	"strings"
)

// RegisterFlags binds the verifier options the command-line front ends
// share (cmd/s2, cmd/s2serve) to fields of o, one flag each, with the
// defaults those binaries use. Options without a flag keep whatever o
// already holds.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Workers, "workers", 4, "number of in-process workers")
	fs.Func("workers-at", "comma-separated sidecar `addresses` of remote workers (overrides -workers)", func(s string) error {
		o.WorkerAddrs = nil
		if s != "" {
			o.WorkerAddrs = strings.Split(s, ",")
		}
		return nil
	})
	fs.IntVar(&o.Shards, "shards", 1, "prefix shard count (>1 enables sharding)")
	fs.StringVar(&o.PartitionScheme, "scheme", "metis", "partition scheme: metis|random|expert|imbalanced|commheavy")
	fs.Int64Var(&o.Seed, "seed", 1, "seed for partitioning and shard shuffling")
	fs.IntVar(&o.Parallelism, "procs", 0, "per-worker goroutine pool for the simulation phases (0 = all CPUs, 1 = sequential)")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", 0, "deadline per worker RPC attempt (0 = none); also applied to worker peer calls")
	fs.IntVar(&o.RPCRetries, "retries", 0, "extra attempts for idempotent worker RPCs that fail transiently")
	fs.DurationVar(&o.HeartbeatInterval, "heartbeat-interval", 0, "ping workers at this interval; 3 consecutive misses declare a worker dead (0 = off)")
	fs.BoolVar(&o.Recover, "recover", false, "on worker death, re-partition its segment onto survivors and re-execute")
}
