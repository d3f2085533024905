# Verify tiers. Tier 1 is the seed contract (ROADMAP.md) plus the
# benchmark module (vet + its -short tests), so renaming a symbol that
# benchmark/README.md pins fails here and not at the next benchmark
# build. The race tier vets and race-checks the concurrent
# retry/reconnect/degradation code at reduced test sizes (-short skips
# the long experiment sweeps), race-checks the benchmark's harness, and
# smoke-fuzzes the wire decoders (frame, JGR1 gradient, the JOIN admit
# payload, the checkpoint stream, the REPL replica snapshot, and the
# SERVE inference micro-batch) so every verify run spends a few seconds
# hunting parser panics beyond the seeded corpus. The checkpoint stream
# is both the migration wire format and the on-disk checkpoint format.
.PHONY: verify tier1 race fuzz cover bench

verify: tier1 race

tier1:
	go build ./... && go test ./...
	cd benchmark && go vet ./... && go test -short ./...

race: fuzz
	go vet ./... && go test -race -short ./...
	cd benchmark && go test -race -short ./...

fuzz:
	go test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/transport
	go test -run '^$$' -fuzz '^FuzzDecodeAdmit$$' -fuzztime 10s ./internal/transport
	go test -run '^$$' -fuzz '^FuzzDecodeRepl$$' -fuzztime 10s ./internal/transport
	go test -run '^$$' -fuzz '^FuzzDecodeServe$$' -fuzztime 10s ./internal/transport
	go test -run '^$$' -fuzz '^FuzzDecodeTrainGrad$$' -fuzztime 10s ./internal/livecluster
	go test -run '^$$' -fuzz '^FuzzDecodeStream$$' -fuzztime 10s ./internal/checkpoint

# Per-package coverage for the fault-tolerance path: the wire protocol,
# the live cluster (membership/failover), the injector, the checkpoint
# store, and the counters.
cover:
	go test -short -cover \
		./internal/transport \
		./internal/livecluster \
		./internal/faultinject \
		./internal/checkpoint \
		./internal/metrics

# The repository's one performance record: every workload of
# BENCHMARK.json, ten seeds each (~20 min); benchmark/README.md names
# the metrics and says how to compare two result files.
bench:
	bash benchmark/run.sh -out .bench_build/out
