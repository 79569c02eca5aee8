# Development workflow shortcuts. `make verify` is the full pre-merge
# gate: formatting, lints-as-errors, release build, and the test suite
# (the tier-1 check from ROADMAP.md).
#
# Everything runs `--offline --locked`: the workspace builds entirely
# from the vendored `.stubs/` crates (see `[patch.crates-io]` in
# Cargo.toml), so a registry-resolution regression — a dependency that
# silently needs the network, or a stale Cargo.lock — fails the gate
# immediately instead of surfacing on the next offline machine.

CARGO ?= cargo
OFFLINE = --offline --locked

.PHONY: verify fmt-check clippy build test bench-build bench-check bench bench-gate smoke-bench-gate bench-serve bench-epoch smoke-epoch smoke-resume smoke-serve bench-shard smoke-shard clean-journal

verify: fmt-check clippy build test bench-build bench-check smoke-resume smoke-serve smoke-bench-gate smoke-epoch smoke-shard

fmt-check:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy $(OFFLINE) --workspace -- -D warnings

# `--workspace` so `target/release/report` (ewhoring-bench is not the
# root package) is current for the smoke targets that execute it.
build:
	$(CARGO) build $(OFFLINE) --release --workspace

# The root package's tests (the tier-1 check), then the service crate's
# own unit tests and wire tests (`crates/bench/tests/serve.rs`), then the
# unit tests of world generation, the reverse index and the parallel
# layer, then those of the pipeline core and the remaining substrate
# crates — none of which a root-package `cargo test` runs — and last
# the image kernels' tests (the fused ≡ reference and kernel ≡ oracle
# checks, and the pinned render fingerprint). Only the two known
# robust-hash test failures are skipped there, until ROADMAP item 2
# fixes them.
test:
	$(CARGO) test $(OFFLINE) -q
	$(CARGO) test $(OFFLINE) -q -p ewhoring-bench
	$(CARGO) test $(OFFLINE) -q -p worldgen -p revsearch -p parkit
	$(CARGO) test $(OFFLINE) -q -p ewhoring-core -p websim -p safety -p socgraph -p textkit -p linsvm -p crimebb -p synthrand
	$(CARGO) test $(OFFLINE) -q -p imagesim -- --skip hash::tests::survives_compression_noise \
		--skip hash::tests::survives_resize_almost_always

# The criterion benches must at least compile, even where running them
# would take too long — catches bench-only API drift.
bench-build:
	$(CARGO) bench $(OFFLINE) --no-run

# The benchmark harness (perfbench/, see BENCHMARK.json) is a package of
# its own that links the pipeline crates' public names. Building it here
# makes a removed or re-signed name fail `make verify` instead of the
# benchmark run. Same target directory as `perfbench/run.py`.
bench-check:
	CARGO_TARGET_DIR=.bench_build $(CARGO) build $(OFFLINE) --release \
		--manifest-path perfbench/Cargo.toml

# Machine-readable per-stage baseline: workers=1 vs workers=4 over a
# small world, written to BENCH_pipeline.json (see README for the
# schema). Scale is kept low so the target stays minutes-not-hours on a
# laptop; raise it for publishable numbers.
bench:
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		bench --scale 0.05 --workers 4 --out BENCH_pipeline.json

# Perf gate for the fused measure kernel: rerun the bench and exit
# nonzero if `measure_images` items/sec at workers=1 falls below the
# committed floor in BENCH_floor.txt. `bench-gate` reruns the full
# BENCH_pipeline.json configuration; `smoke-bench-gate` is the fast
# small-scale tripwire wired into `make verify`.
bench-gate:
	mkdir -p .journals
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		bench --scale 0.05 --workers 4 --out .journals/bench-gate.json \
		--gate-floor $$(awk '$$1=="full"{print $$2}' BENCH_floor.txt)

smoke-bench-gate:
	mkdir -p .journals
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		bench --scale 0.02 --workers 2 --out .journals/bench-gate-smoke.json \
		--gate-floor $$(awk '$$1=="smoke"{print $$2}' BENCH_floor.txt)

# Service-mode baseline: start a server on an ephemeral port, fire the
# seeded hot/cold mix from 4 client threads, and write requests/sec,
# cache-hit ratio, and p50/p95 latency to BENCH_serve.json.
bench-serve: build
	rm -rf .journals/bench-serve && mkdir -p .journals/bench-serve
	./target/release/report serve --addr 127.0.0.1:0 --pool 4 \
		--journal-dir .journals/bench-serve/journal \
		--port-file .journals/bench-serve/port 2> .journals/bench-serve/serve.log & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -s .journals/bench-serve/port ] && break; sleep 0.1; done; \
	./target/release/report loadgen --addr "$$(cat .journals/bench-serve/port)" \
		--clients 4 --requests 25 --hot-ratio 0.8 --scale 0.02 --cold-keys 3 \
		--out BENCH_serve.json --shutdown || { kill $$server 2> /dev/null; exit 1; }; \
	wait $$server
	rm -rf .journals/bench-serve

# Epoch-advance baseline: advance the epoch engine through 6 epochs,
# timing each warm delta against a full recompute of the same prefix,
# and gate on the final-epoch delta being at least the committed
# multiple of a full recompute (the `epoch` row of BENCH_floor.txt).
bench-epoch:
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		bench epoch --scale 0.05 --workers 4 --epochs 20 --out BENCH_epoch.json \
		--gate-floor $$(awk '$$1=="epoch"{print $$2}' BENCH_floor.txt) \
		--flat-ceiling $$(awk '$$1=="epoch-flat"{print $$2}' BENCH_floor.txt)

# Epoch smoke test wired into `make verify`: a small-scale incremental
# run must produce a byte-identical snapshot to the one-shot batch run
# of the same streamed spec (warm advance ≡ fresh recompute), and the
# final-epoch delta must clear the smoke floor. The engine journals
# epoch e under the run key of the one-shot `--upto e` run, so the two
# share records: a one-shot `--upto 2` run killed after four stages is
# finished by an incremental run (epoch 2 loads those four stages), and
# then `--upto 2 --resume` loads all nine stages, computing none, and
# must equal a fresh `--upto 2` run. A one-shot run of epoch 3 must not
# carry a later `--incremental --upto 2` past epoch 2: it advances to 2,
# a rerun resumes there from the journal, and both equal the fresh
# `--upto 2` run. The second pair streams
# a world whose first epoch has nothing to annotate, so the classifier
# trains at a later epoch (DESIGN.md §6h): both runs must exit 0 and
# agree byte for byte.
UNTRAINED_SEED = 1446698121926109755
smoke-epoch: build
	rm -rf .journals/smoke-epoch && mkdir -p .journals/smoke-epoch
	./target/release/report 0.02 0xE70C --epochs 3 --incremental \
		--journal-dir .journals/smoke-epoch/journal \
		--snapshot-json .journals/smoke-epoch/incremental.json > /dev/null
	./target/release/report 0.02 0xE70C --epochs 3 \
		--snapshot-json .journals/smoke-epoch/full.json > /dev/null
	cmp .journals/smoke-epoch/incremental.json .journals/smoke-epoch/full.json
	./target/release/report 0.02 0xE70C --epochs 3 --upto 2 \
		--journal-dir .journals/smoke-epoch/shared --stop-after 4 > /dev/null 2> /dev/null
	./target/release/report 0.02 0xE70C --epochs 3 --incremental \
		--journal-dir .journals/smoke-epoch/shared \
		--snapshot-json .journals/smoke-epoch/shared-incremental.json > /dev/null
	cmp .journals/smoke-epoch/shared-incremental.json .journals/smoke-epoch/full.json
	./target/release/report 0.02 0xE70C --epochs 3 --upto 2 \
		--journal-dir .journals/smoke-epoch/shared --resume \
		--snapshot-json .journals/smoke-epoch/shared-resumed.json \
		> /dev/null 2> .journals/smoke-epoch/shared-resumed.log
	grep -q '\[journal\]' .journals/smoke-epoch/shared-resumed.log
	! grep -q '\[computed\]' .journals/smoke-epoch/shared-resumed.log
	./target/release/report 0.02 0xE70C --epochs 3 --upto 2 \
		--snapshot-json .journals/smoke-epoch/upto2.json > /dev/null
	cmp .journals/smoke-epoch/shared-resumed.json .journals/smoke-epoch/upto2.json
	./target/release/report 0.02 0xE70C --epochs 3 \
		--journal-dir .journals/smoke-epoch/later > /dev/null 2> /dev/null
	for run in advanced resumed; do \
		./target/release/report 0.02 0xE70C --epochs 3 --upto 2 --incremental \
			--journal-dir .journals/smoke-epoch/later \
			--snapshot-json .journals/smoke-epoch/later-$$run.json > /dev/null || exit 1; \
		cmp .journals/smoke-epoch/later-$$run.json .journals/smoke-epoch/upto2.json || exit 1; \
	done
	./target/release/report 0.05 $(UNTRAINED_SEED) --epochs 20 --incremental \
		--journal-dir .journals/smoke-epoch/journal-untrained \
		--snapshot-json .journals/smoke-epoch/untrained-incremental.json > /dev/null
	./target/release/report 0.05 $(UNTRAINED_SEED) --epochs 20 \
		--snapshot-json .journals/smoke-epoch/untrained-full.json > /dev/null
	cmp .journals/smoke-epoch/untrained-incremental.json \
		.journals/smoke-epoch/untrained-full.json
	./target/release/report bench epoch --scale 0.02 --workers 2 --epochs 3 \
		--out .journals/smoke-epoch/bench.json \
		--gate-floor $$(awk '$$1=="epoch-smoke"{print $$2}' BENCH_floor.txt)
	grep -q '"stage_us"' .journals/smoke-epoch/bench.json
	grep -Eq '"top_classifier": [1-9]' .journals/smoke-epoch/bench.json
	grep -Eq '"actors": [1-9]' .journals/smoke-epoch/bench.json
	grep -Eq '"finance": [1-9]' .journals/smoke-epoch/bench.json
	rm -rf .journals/smoke-epoch

# Supervised-sharding baseline: one unsharded run, one sharded run over
# the same world, a hard gate on snapshot equality (merge determinism),
# and BENCH_shard.json with the wall-clock ratio plus the supervision
# counters. The floor is the `shard` row of BENCH_floor.txt: sharded
# throughput must stay above that fraction of the unsharded driver's.
bench-shard:
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		bench shard --scale 0.05 --workers 4 --shards 5 --out BENCH_shard.json \
		--gate-floor $$(awk '$$1=="shard"{print $$2}' BENCH_floor.txt)

# Sharding smoke test wired into `make verify`: a sharded CLI run must
# produce a byte-identical snapshot to the unsharded run of the same
# (scale, seed), and so must a journaled sharded run killed after four
# stages and resumed; a run with a poisoned shard (every attempt fails)
# must still complete, reporting the quarantined shard through the
# supervision counters instead of crashing.
smoke-shard: build
	rm -rf .journals/smoke-shard && mkdir -p .journals/smoke-shard
	./target/release/report 0.02 0x5AD --shards 3 \
		--snapshot-json .journals/smoke-shard/sharded.json > /dev/null
	./target/release/report 0.02 0x5AD \
		--snapshot-json .journals/smoke-shard/unsharded.json > /dev/null
	cmp .journals/smoke-shard/sharded.json .journals/smoke-shard/unsharded.json
	./target/release/report 0.02 0x5AD --shards 3 \
		--journal-dir .journals/smoke-shard/journal --stop-after 4 > /dev/null 2> /dev/null
	./target/release/report 0.02 0x5AD --shards 3 \
		--journal-dir .journals/smoke-shard/journal --resume \
		--snapshot-json .journals/smoke-shard/resumed.json > /dev/null
	cmp .journals/smoke-shard/resumed.json .journals/smoke-shard/unsharded.json
	./target/release/report 0.02 0x5AD --shards 3 \
		--poison-shard 1 --poison-severity 1.0 \
		> /dev/null 2> .journals/smoke-shard/poisoned.log
	grep -q '1 quarantined' .journals/smoke-shard/poisoned.log
	grep -q 'quarantine: ' .journals/smoke-shard/poisoned.log
	rm -rf .journals/smoke-shard

# Kill-and-resume smoke test over the checkpoint journal: run the first
# four stages with a journal (simulated crash at the stage boundary),
# resume the run from the journal, and require the resumed report's
# determinism snapshot to match a fresh uninterrupted run byte-for-byte
# — for a batch spec and for a streamed (`--epochs 3`) one. Last, a run
# whose corruption plan quarantines every thread must end in a typed
# error: exit 1 with an `error:` line, not a panic.
smoke-resume:
	rm -rf .journals/smoke
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 --journal-dir .journals/smoke --stop-after 4 > /dev/null
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 --journal-dir .journals/smoke --resume \
		--snapshot-json .journals/smoke/resumed.json > /dev/null
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 --snapshot-json .journals/smoke/fresh.json > /dev/null
	cmp .journals/smoke/resumed.json .journals/smoke/fresh.json
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 --epochs 3 --journal-dir .journals/smoke --stop-after 4 > /dev/null
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 --epochs 3 --journal-dir .journals/smoke --resume \
		--snapshot-json .journals/smoke/resumed-epochs.json > /dev/null
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 --epochs 3 --snapshot-json .journals/smoke/fresh-epochs.json > /dev/null
	cmp .journals/smoke/resumed-epochs.json .journals/smoke/fresh-epochs.json
	$(CARGO) run $(OFFLINE) --release -p ewhoring-bench --bin report -- \
		0.02 0x1 --corruption 1000 > /dev/null 2> .journals/smoke/failing.log; \
		test $$? -eq 1
	grep -q '^error: ' .journals/smoke/failing.log
	rm -rf .journals/smoke

# Service-mode smoke test: start a server on an ephemeral port, send it
# one request line of 64 KiB of `[` (nested past the JSON parser's depth
# bound, so it must get an `"ok":false` line back), then issue `run` +
# `report` + `shutdown` over the wire through the same server, and
# require the wire-delivered snapshot to be byte-identical to a batch
# `--snapshot-json` run of the same (scale, seed) — the batch/service
# equivalence the RunSpec layer guarantees.
smoke-serve: build
	rm -rf .journals/smoke-serve && mkdir -p .journals/smoke-serve
	./target/release/report serve --addr 127.0.0.1:0 --pool 2 \
		--journal-dir .journals/smoke-serve/journal \
		--port-file .journals/smoke-serve/port 2> .journals/smoke-serve/serve.log & \
	server=$$!; \
	for i in $$(seq 1 100); do [ -s .journals/smoke-serve/port ] && break; sleep 0.1; done; \
	python3 -c 'import socket, sys; host, port = sys.argv[1].rsplit(":", 1); \
		conn = socket.create_connection((host, int(port)), timeout=10); \
		conn.sendall(b"[" * 65536 + b"\n"); \
		sys.exit("\"ok\":false" not in conn.makefile().readline())' \
		"$$(cat .journals/smoke-serve/port)" \
		|| { kill $$server 2> /dev/null; exit 1; }; \
	./target/release/report loadgen --addr "$$(cat .journals/smoke-serve/port)" \
		--clients 1 --requests 1 --hot-ratio 1.0 --scale 0.02 --seed 0xBEEF \
		--snapshot-out .journals/smoke-serve/wire.json --shutdown 2> /dev/null \
		|| { kill $$server 2> /dev/null; exit 1; }; \
	wait $$server
	./target/release/report 0.02 0xBEEF \
		--snapshot-json .journals/smoke-serve/batch.json > /dev/null 2> /dev/null
	cmp .journals/smoke-serve/wire.json .journals/smoke-serve/batch.json
	rm -rf .journals/smoke-serve

clean-journal:
	rm -rf .journals
