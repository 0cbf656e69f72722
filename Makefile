# Tier-1 verification and developer shortcuts. `make tier1` is the gate
# every PR must keep green; it race-checks the concurrent pipeline stages
# (file processing, sharded mining and FP-tree construction, parallel scan)
# and enforces gofmt cleanliness on top of the plain build-and-test cycle.

GO ?= go

.PHONY: tier1 build vet perfbench-vet fmt test race bench serve-smoke driver-gate obs-gate fuzz-smoke examples-smoke

tier1: build vet perfbench-vet fmt race serve-smoke driver-gate obs-gate fuzz-smoke examples-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# perfbench is its own module, so ./... above skips it. Vetting it here
# type-checks it against this tree, so renaming or deleting a name it
# compiles against fails tier-1 rather than the benchmark run.
perfbench-vet:
	cd perfbench && $(GO) vet .

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmarks of the parallel pipeline: compare the serial reference path
# against the all-CPU path (BenchmarkScan, BenchmarkPruneUncommon,
# BenchmarkMinePatterns show the speedup on multi-core runners), time
# the points-to analysis per sample (BenchmarkAnalyze, with the facts
# and context-explosion fallbacks it produced) and the whole per-file
# front end with its allocations (BenchmarkFrontEnd), the corpus load on
# all CPUs and on one (BenchmarkLoadDirectory) and the Go parse with its
# conversion to the unified AST (BenchmarkParse) and the name paths of
# the GOROOT sample, walked and through the AST+ (BenchmarkPaths), then
# record the mining-stage numbers (ns/op, allocs/op, FP-tree node count)
# into BENCH_mining.json and the per-stage span durations of one traced
# end-to-end run into BENCH_trace.json, so the perf trajectory is
# tracked per commit.
bench:
	$(GO) test -run xxx -bench 'BenchmarkScan$$|BenchmarkPruneUncommon|BenchmarkMinePatterns' -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkServeScan$$' -benchmem ./internal/serve
	$(GO) test -run xxx -bench 'BenchmarkAnalyze$$' -benchmem ./internal/pointsto
	$(GO) test -run xxx -bench 'BenchmarkFrontEnd$$|BenchmarkLoadDirectory$$' -benchmem ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkParse$$' -benchmem ./internal/golang
	$(GO) test -run xxx -bench 'BenchmarkPaths$$' -benchmem ./internal/astplus
	BENCH_JSON=BENCH_mining.json $(GO) test -run 'TestWriteMiningBenchJSON$$' -count=1 -v .
	BENCH_TRACE_JSON=BENCH_trace.json $(GO) test -run 'TestWriteTraceBenchJSON$$' -count=1 -v .
	BENCH_KNOWLEDGE_JSON=BENCH_knowledge.json $(GO) test -run 'TestWriteKnowledgeBenchJSON$$' -count=1 -v .
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.json $(GO) test -run 'TestWriteServeBenchJSON$$' -count=1 -v ./internal/serve

# Short native-fuzzing pass over the three binary decoders that take
# bytes from disk (the knowledge artifact, the FP-tree codec, and the
# checkpoint envelope), over the session range-edit splice, which takes
# positions from editor clients, over the overlay's statement reuse,
# which with points-to on must equal a full analysis on any before/after
# pair of Python sources,
# over the hand-written Python and Java
# parsers and the Go front end's conversion of go/parser trees, which take
# source from files and requests, over the name-path walk, which must
# give the AST+'s paths on every parsed Python statement, over the unified
# diff applier, which takes patches from /v1/diff clients, and over the
# driver's decoding of worker Result lines. Go fuzzes one target per
# invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeKnowledge$$' -fuzztime 5s ./internal/knowledge
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 5s ./internal/knowledge
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTree$$' -fuzztime 5s ./internal/fptree
	$(GO) test -run '^$$' -fuzz '^FuzzApplyEdit$$' -fuzztime 5s ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzOverlaySplice$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParsePython$$' -fuzztime 5s ./internal/pylang
	$(GO) test -run '^$$' -fuzz '^FuzzParseJava$$' -fuzztime 5s ./internal/javalang
	$(GO) test -run '^$$' -fuzz '^FuzzParseGo$$' -fuzztime 5s ./internal/golang
	$(GO) test -run '^$$' -fuzz '^FuzzWalk$$' -fuzztime 5s ./internal/astplus
	$(GO) test -run '^$$' -fuzz '^FuzzApplyUnifiedDiff$$' -fuzztime 5s ./internal/udiff
	$(GO) test -run '^$$' -fuzz '^FuzzWorkerResult$$' -fuzztime 5s ./internal/driver

# Runs every example program from the repository root (selfscan reads
# internal/ from there) and fails on the first non-zero exit, so an API
# change that breaks an example's behaviour, not just its build, fails
# tier-1.
examples-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./examples/...; \
	for ex in $$(ls "$$tmp"); do \
		"$$tmp/$$ex" >"$$tmp/$$ex.out" 2>&1 || \
			{ echo "examples-smoke: $$ex failed"; cat "$$tmp/$$ex.out"; exit 1; }; \
	done; \
	echo "examples-smoke: ok ($$(ls "$$tmp" | grep -vc '\.out$$') examples)"

# Determinism gate for the distributed miner: the knowledge file from a
# 2-shard driver run with spawned worker processes must be byte-for-byte
# identical to a serial single-process mine of the same corpus, and a
# second driver run over the same checkpoint directory must reuse every
# shard checkpoint and still produce the same bytes.
driver-gate:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./cmd/namer-corpus ./cmd/namer-mine; \
	"$$tmp/namer-corpus" -lang python -repos 12 -files 3 -out "$$tmp/corpus" >/dev/null; \
	"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -parallelism 1 \
		-out "$$tmp/serial.bin" >/dev/null 2>&1; \
	"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -driver -shards 2 -worker-procs 2 \
		-checkpoints "$$tmp/ck" -out "$$tmp/driver.bin" >"$$tmp/driver.log" 2>&1 || \
		{ echo "driver-gate: driver mine failed"; cat "$$tmp/driver.log"; exit 1; }; \
	cmp "$$tmp/serial.bin" "$$tmp/driver.bin" || \
		{ echo "driver-gate: 2-shard driver knowledge differs from serial mine"; exit 1; }; \
	"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -driver -shards 2 -worker-procs 2 \
		-checkpoints "$$tmp/ck" -out "$$tmp/resumed.bin" >"$$tmp/resume.log" 2>&1 || \
		{ echo "driver-gate: resumed driver mine failed"; cat "$$tmp/resume.log"; exit 1; }; \
	grep -qE 'driver: 2 shards \(2 stmts \+ 2 trees checkpoints reused' "$$tmp/resume.log" || \
		{ echo "driver-gate: resume did not reuse the shard checkpoints"; cat "$$tmp/resume.log"; exit 1; }; \
	cmp "$$tmp/serial.bin" "$$tmp/resumed.bin" || \
		{ echo "driver-gate: resumed driver knowledge differs from serial mine"; exit 1; }; \
	echo "driver-gate: ok (2-shard driver == serial, full checkpoint reuse)"

# Observability gate for the distributed miner. The in-process half
# runs the driver tests of the replacement paths: a traced Run with
# in-process jobs records their spans in its own trace, and a worker's
# JSON records carry worker_pid. The binary half runs the real
# namer-mine: an in-process driver mine with -trace must write the job,
# shard and checkpoint spans, and a resumed one the checkpoint reads and
# resume validations. A driver mine with two worker processes and JSON
# debug logging must keep its stderr structured: progress records, the
# workers' own records tagged worker_pid, and no worker record nested as
# a "worker: {...}" message string. Every stderr line of that mine, of a
# single-process mine with -log-format json, and of a json mine of a
# missing corpus, which must fail with an Error record, must be a JSON
# object, progress reports included.
obs-gate:
	$(GO) test -run 'TestRunTracesInProcessJobs$$|TestServeWorkerTagsRecordsWithPID$$' -count=1 ./internal/driver
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./cmd/namer-corpus ./cmd/namer-mine; \
	"$$tmp/namer-corpus" -lang python -repos 12 -files 3 -out "$$tmp/corpus" >/dev/null; \
	for run in fresh resumed; do \
		"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -driver -shards 2 \
			-checkpoints "$$tmp/inproc-ck" -out "$$tmp/inproc.bin" -trace "$$tmp/$$run-trace.json" \
			>"$$tmp/$$run.out" 2>&1 || \
			{ echo "obs-gate: traced in-process driver mine ($$run) failed"; cat "$$tmp/$$run.out"; exit 1; }; \
	done; \
	for span in job load_shard build_shard_tree checkpoint_write; do \
		grep -qF "\"$$span\"" "$$tmp/fresh-trace.json" || \
			{ echo "obs-gate: in-process driver trace missing $$span span"; exit 1; }; \
	done; \
	for span in checkpoint_read resume_validate; do \
		grep -qF "\"$$span\"" "$$tmp/resumed-trace.json" || \
			{ echo "obs-gate: resumed driver trace missing $$span span"; exit 1; }; \
	done; \
	"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -driver -shards 2 -worker-procs 2 \
		-checkpoints "$$tmp/ck" -out "$$tmp/driver.bin" \
		-log-level debug -log-format json >"$$tmp/mine.out" 2>"$$tmp/mine.err" || \
		{ echo "obs-gate: json driver mine failed"; cat "$$tmp/mine.err"; exit 1; }; \
	grep -q '"level":"INFO"' "$$tmp/mine.err" || \
		{ echo "obs-gate: -log-format json produced no JSON records"; head "$$tmp/mine.err"; exit 1; }; \
	grep -q '"worker_pid":' "$$tmp/mine.err" || \
		{ echo "obs-gate: no worker records tagged with worker_pid"; head "$$tmp/mine.err"; exit 1; }; \
	! grep -F '"msg":"worker: {' "$$tmp/mine.err" || \
		{ echo "obs-gate: worker JSON records above are nested as message strings"; exit 1; }; \
	"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -out "$$tmp/single.bin" \
		-log-format json >/dev/null 2>"$$tmp/single.err" || \
		{ echo "obs-gate: single-process json mine failed"; cat "$$tmp/single.err"; exit 1; }; \
	! "$$tmp/namer-mine" -lang python -dir "$$tmp/missing" -out "$$tmp/missing.bin" \
		-log-format json >/dev/null 2>"$$tmp/missing.err" || \
		{ echo "obs-gate: json mine of a missing corpus succeeded"; exit 1; }; \
	grep -q '"level":"ERROR"' "$$tmp/missing.err" || \
		{ echo "obs-gate: failed json mine logged no Error record"; cat "$$tmp/missing.err"; exit 1; }; \
	for f in mine single missing; do \
		[ "$$f" = missing ] || grep -q '"msg":"progress"' "$$tmp/$$f.err" || \
			{ echo "obs-gate: $$f mine logged no progress records"; head "$$tmp/$$f.err"; exit 1; }; \
		bad=$$(grep -cvE '^(\{.*\})?$$' "$$tmp/$$f.err" || true); \
		[ "$$bad" = 0 ] || { echo "obs-gate: $$bad stderr lines of the $$f json mine are not JSON objects"; \
			grep -vE '^(\{.*\})?$$' "$$tmp/$$f.err"; exit 1; }; \
	done; \
	echo "obs-gate: ok (in-process driver trace, structured worker and driver logs)"

# End-to-end smoke test of the serving layer: generate a corpus, mine
# binary knowledge (with a -trace export that must contain the FP
# stages), boot namer-serve on a random port with the flight recorder
# on, and require 200s from /healthz, /v1/scan, and /v1/diff (both the
# before/after and the unified-diff "patch" forms). Repeating the same
# scan must hit the per-file cache (asserted in the response and in the
# namer_cache_hits_total counter). The /metrics scrape must parse as
# Prometheus text format and carry the request counter, every
# parse/scan/classify/diff stage histogram, the cache counters and
# gauges, the Go runtime gauges, and the build-info series.
# /debug/traces must list the scan's trace and its Chrome export must
# cover the parse/match/classify pipeline. Then the hot-swap path:
# SIGHUP with a scan in flight (the scan must still return 200), the
# namer_knowledge_reloads_total counter and namer_knowledge_info gauge
# on /metrics, POST /debug/reload returning "status": "ok", and the
# scan cache rotating with the bundle (cold then warm again after the
# swap). Then one full editor session: open, a full-content change, an
# incremental range edit (the response must say "scan": "incremental"),
# a resend of the whole file with one line changed (also "incremental":
# the unchanged statements are reused), another edit across a
# second SIGHUP reload (still 200, never
# "failed"), the namer_sessions gauge at 1, close, and a 404 for an
# edit after close. Then the knowledge file is overwritten with a file
# in the retired v1 binary format: POST /debug/reload must answer 500
# with an error naming version 1, and scans must keep answering 200
# from the old bundle (/healthz still names the old knowledge hash).
# The same holds for a file in the retired JSON knowledge format, whose
# reload error must name JSON. A
# TERM at the end checks clean shutdown. This server runs with
# -log-format json, so after the failed reload and the shutdown every
# non-empty line of its output (access log plus stderr) must be a JSON
# object. Every histogram on /metrics must have le-ordered, cumulative
# buckets.
# Finally a second server with -max-inflight 1: while a deliberately
# slow scan (tens of thousands of generated statements) holds the only
# slot — confirmed via the namer_scan_inflight gauge, not a sleep — a
# concurrent scan must be shed with 429 and a Retry-After header, and
# the held scan must still complete with 200.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid $$pid2 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp" ./cmd/namer-corpus ./cmd/namer-mine ./cmd/namer-serve; \
	"$$tmp/namer-serve" -version >/dev/null || { echo "serve-smoke: -version failed"; exit 1; }; \
	"$$tmp/namer-corpus" -lang python -repos 12 -files 3 -out "$$tmp/corpus" >/dev/null; \
	"$$tmp/namer-mine" -lang python -dir "$$tmp/corpus" -out "$$tmp/knowledge.bin" \
		-trace "$$tmp/mine-trace.json" >/dev/null 2>"$$tmp/mine.log"; \
	for span in load_corpus process_files pass1_count build_tree fp_growth prune_uncommon; do \
		grep -qF "\"$$span\"" "$$tmp/mine-trace.json" || \
			{ echo "serve-smoke: mine trace missing $$span span"; cat "$$tmp/mine-trace.json"; exit 1; }; \
	done; \
	"$$tmp/namer-serve" -addr 127.0.0.1:0 -knowledge "$$tmp/knowledge.bin" -traces -log-format json \
		-ready-file "$$tmp/addr" >"$$tmp/serve.log" 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "serve-smoke: server did not start"; cat "$$tmp/serve.log"; exit 1; }; \
	addr=$$(head -n1 "$$tmp/addr"); \
	code=$$(curl -s -o "$$tmp/health.json" -w '%{http_code}' "http://$$addr/healthz"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /healthz returned $$code"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/scan.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /v1/scan returned $$code"; cat "$$tmp/scan.json"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"source":"def f(:\n"}' "http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: malformed-source scan returned $$code"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/scan2.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: warm /v1/scan returned $$code"; cat "$$tmp/scan2.json"; exit 1; }; \
	grep -qE '"cache_hits": [1-9]' "$$tmp/scan2.json" || \
		{ echo "serve-smoke: repeated scan did not hit the cache"; cat "$$tmp/scan2.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/diff.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","files":[{"path":"d.py","before":"value = 1\n","after":"value = 1\nupload_cnt = upload_count + 1\n"}],"all":true}' \
		"http://$$addr/v1/diff"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /v1/diff returned $$code"; cat "$$tmp/diff.json"; exit 1; }; \
	grep -qE '"changed_statements": [1-9]' "$$tmp/diff.json" || \
		{ echo "serve-smoke: /v1/diff saw no changed statements"; cat "$$tmp/diff.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/diff2.json" -w '%{http_code}' -X POST \
		-d '{"files":[{"path":"p.py","before":"a = 1\n","patch":"@@ -1,1 +1,2 @@\n a = 1\n+b = 2\n"}]}' \
		"http://$$addr/v1/diff"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: patch /v1/diff returned $$code"; cat "$$tmp/diff2.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/metrics.txt" -w '%{http_code}' "http://$$addr/metrics"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /metrics returned $$code"; exit 1; }; \
	for series in 'namer_scan_requests_total' 'namer_scans_total' \
		'namer_request_seconds_bucket' \
		'namer_stage_seconds_bucket{stage="parse",le="+Inf"}' \
		'namer_stage_seconds_bucket{stage="scan",le="+Inf"}' \
		'namer_stage_seconds_bucket{stage="classify",le="+Inf"}' \
		'namer_stage_seconds_bucket{stage="diff",le="+Inf"}' \
		'namer_http_responses_total{status="200"}' \
		'namer_scan_inflight' \
		'namer_diff_requests_total' \
		'namer_cache_misses_total' \
		'namer_cache_evictions_total' \
		'namer_cache_bytes' \
		'namer_cache_entries' \
		'go_goroutines' \
		'go_heap_alloc_bytes' \
		'go_gc_pause_seconds_bucket' \
		'namer_build_info{'; do \
		grep -qF "$$series" "$$tmp/metrics.txt" || \
			{ echo "serve-smoke: /metrics missing $$series"; cat "$$tmp/metrics.txt"; exit 1; }; \
	done; \
	grep -qE '^namer_cache_hits_total [1-9]' "$$tmp/metrics.txt" || \
		{ echo "serve-smoke: namer_cache_hits_total did not count the warm scan"; \
		  grep namer_cache "$$tmp/metrics.txt"; exit 1; }; \
	bad=$$(grep -cvE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(_bucket|_sum|_count)?(\{[^{}]*\})? -?[0-9.eE+-]+|)$$' "$$tmp/metrics.txt" || true); \
	[ "$$bad" = 0 ] || { echo "serve-smoke: $$bad unparsable /metrics lines"; \
		grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(_bucket|_sum|_count)?(\{[^{}]*\})? -?[0-9.eE+-]+|)$$' "$$tmp/metrics.txt"; exit 1; }; \
	awk '/_bucket\{/ { \
		line=$$0; le=line; sub(/.*le="/,"",le); sub(/".*/,"",le); \
		series=$$1; sub(/le="[^"]*",?/,"",series); \
		lev = (le=="+Inf") ? 1e308 : le+0; \
		if (series in lastle && lev <= lastle[series]) { print "le order violation: " line; bad=1 } \
		if (series in lastct && $$NF+0 < lastct[series]) { print "non-cumulative bucket: " line; bad=1 } \
		lastle[series]=lev; lastct[series]=$$NF+0 } \
		END { exit bad }' "$$tmp/metrics.txt" || \
		{ echo "serve-smoke: /metrics histogram buckets not monotone"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/traces.json" -w '%{http_code}' "http://$$addr/debug/traces"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /debug/traces returned $$code"; exit 1; }; \
	grep -qF '"scan_request"' "$$tmp/traces.json" || \
		{ echo "serve-smoke: /debug/traces has no recorded scan"; cat "$$tmp/traces.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/trace-slowest.json" -w '%{http_code}' "http://$$addr/debug/traces?id=slowest"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /debug/traces?id=slowest returned $$code"; exit 1; }; \
	for span in parse match classify; do \
		grep -qF "\"$$span\"" "$$tmp/trace-slowest.json" || \
			{ echo "serve-smoke: slowest trace missing $$span span"; cat "$$tmp/trace-slowest.json"; exit 1; }; \
	done; \
	grep -qF '"knowledge_format"' "$$tmp/health.json" || \
		{ echo "serve-smoke: /healthz missing knowledge_format"; cat "$$tmp/health.json"; exit 1; }; \
	grep -qF '"knowledge_hash"' "$$tmp/health.json" || \
		{ echo "serve-smoke: /healthz missing knowledge_hash"; cat "$$tmp/health.json"; exit 1; }; \
	curl -s -o "$$tmp/inflight.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan" >"$$tmp/inflight.code" & cpid=$$!; \
	kill -HUP $$pid; \
	wait $$cpid; \
	[ "$$(cat "$$tmp/inflight.code")" = 200 ] || \
		{ echo "serve-smoke: scan in flight across SIGHUP returned $$(cat "$$tmp/inflight.code")"; \
		  cat "$$tmp/inflight.json"; exit 1; }; \
	for i in $$(seq 1 50); do \
		curl -s "http://$$addr/metrics" | grep -qE '^namer_knowledge_reloads_total [1-9]' && break; sleep 0.1; \
	done; \
	curl -s -o "$$tmp/metrics2.txt" "http://$$addr/metrics"; \
	grep -qE '^namer_knowledge_reloads_total [1-9]' "$$tmp/metrics2.txt" || \
		{ echo "serve-smoke: SIGHUP did not bump namer_knowledge_reloads_total"; \
		  grep namer_knowledge "$$tmp/metrics2.txt"; cat "$$tmp/serve.log"; exit 1; }; \
	grep -qF 'namer_knowledge_info{' "$$tmp/metrics2.txt" || \
		{ echo "serve-smoke: /metrics missing namer_knowledge_info"; exit 1; }; \
	grep -qE '^namer_knowledge_reload_last_success 1' "$$tmp/metrics2.txt" || \
		{ echo "serve-smoke: namer_knowledge_reload_last_success not 1 after SIGHUP"; \
		  grep namer_knowledge "$$tmp/metrics2.txt"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/reload.json" -w '%{http_code}' -X POST "http://$$addr/debug/reload"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: /debug/reload returned $$code"; cat "$$tmp/reload.json"; exit 1; }; \
	grep -qF '"status": "ok"' "$$tmp/reload.json" || \
		{ echo "serve-smoke: /debug/reload body not ok"; cat "$$tmp/reload.json"; exit 1; }; \
	grep -qF '"content_hash"' "$$tmp/reload.json" || \
		{ echo "serve-smoke: /debug/reload body missing knowledge identity"; cat "$$tmp/reload.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/scan3.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: post-reload scan returned $$code"; cat "$$tmp/scan3.json"; exit 1; }; \
	grep -qF '"cache_hits": 0' "$$tmp/scan3.json" || \
		{ echo "serve-smoke: reload did not rotate the scan cache"; cat "$$tmp/scan3.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/scan4.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: warm post-reload scan returned $$code"; exit 1; }; \
	grep -qE '"cache_hits": [1-9]' "$$tmp/scan4.json" || \
		{ echo "serve-smoke: post-reload cache never warms"; cat "$$tmp/scan4.json"; exit 1; }; \
	sid=$$(curl -s -X POST -d '{"op":"open"}' "http://$$addr/v1/session" | \
		sed -n 's/.*"session_id": "\([^"]*\)".*/\1/p'); \
	[ -n "$$sid" ] || { echo "serve-smoke: session open failed"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/sess1.json" -w '%{http_code}' -X POST \
		-d '{"path":"s.py","version":1,"all":true,"edits":[{"text":"value = 1\ndownload_cnt = download_count + 1\n"}]}' \
		"http://$$addr/v1/session/$$sid/change"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: session change returned $$code"; cat "$$tmp/sess1.json"; exit 1; }; \
	grep -qF '"scan": "full"' "$$tmp/sess1.json" || \
		{ echo "serve-smoke: first session change is not a full scan"; cat "$$tmp/sess1.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/sess2.json" -w '%{http_code}' -X POST \
		-d '{"path":"s.py","version":2,"all":true,"edits":[{"range":{"start":{"line":2,"character":0},"end":{"line":2,"character":0}},"text":"upload_cnt = upload_count + 1\n"}]}' \
		"http://$$addr/v1/session/$$sid/change"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: session range edit returned $$code"; cat "$$tmp/sess2.json"; exit 1; }; \
	grep -qF '"scan": "incremental"' "$$tmp/sess2.json" || \
		{ echo "serve-smoke: session range edit did not scan incrementally"; cat "$$tmp/sess2.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/sess2b.json" -w '%{http_code}' -X POST \
		-d '{"path":"s.py","version":3,"all":true,"edits":[{"text":"value = 2\ndownload_cnt = download_count + 1\nupload_cnt = upload_count + 1\n"}]}' \
		"http://$$addr/v1/session/$$sid/change"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: session full resend returned $$code"; cat "$$tmp/sess2b.json"; exit 1; }; \
	grep -qF '"scan": "incremental"' "$$tmp/sess2b.json" || \
		{ echo "serve-smoke: one-line full resend did not scan incrementally"; cat "$$tmp/sess2b.json"; exit 1; }; \
	kill -HUP $$pid; \
	for i in $$(seq 1 50); do \
		curl -s "http://$$addr/metrics" | grep -qE '^namer_knowledge_reloads_total 3' && break; sleep 0.1; \
	done; \
	code=$$(curl -s -o "$$tmp/sess3.json" -w '%{http_code}' -X POST \
		-d '{"path":"s.py","version":4,"all":true,"edits":[{"range":{"start":{"line":3,"character":0},"end":{"line":3,"character":0}},"text":"task_cnt = task_count + 1\n"}]}' \
		"http://$$addr/v1/session/$$sid/change"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: session edit across SIGHUP returned $$code"; cat "$$tmp/sess3.json"; exit 1; }; \
	grep -qF '"scan": "failed"' "$$tmp/sess3.json" && \
		{ echo "serve-smoke: session scan failed across SIGHUP"; cat "$$tmp/sess3.json"; exit 1; }; \
	curl -s "http://$$addr/metrics" | grep -qE '^namer_sessions 1' || \
		{ echo "serve-smoke: namer_sessions gauge is not 1 with one session open"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST \
		-d '{"op":"close","session_id":"'"$$sid"'"}' "http://$$addr/v1/session"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: session close returned $$code"; exit 1; }; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST \
		-d '{"path":"s.py","version":5,"edits":[{"text":"x = 1\n"}]}' \
		"http://$$addr/v1/session/$$sid/change"); \
	[ "$$code" = 404 ] || { echo "serve-smoke: change after close returned $$code, want 404"; exit 1; }; \
	cp "$$tmp/knowledge.bin" "$$tmp/knowledge.good"; \
	hash1=$$(curl -s "http://$$addr/healthz" | grep -o '"knowledge_hash": *"[0-9a-f]*"'); \
	printf '\236NKB\001\003\000\002Go' >"$$tmp/knowledge.bin"; \
	code=$$(curl -s -o "$$tmp/reload-v1.json" -w '%{http_code}' -X POST "http://$$addr/debug/reload"); \
	[ "$$code" = 500 ] || { echo "serve-smoke: reload of a v1 file returned $$code, want 500"; cat "$$tmp/reload-v1.json"; exit 1; }; \
	grep -qF 'unsupported binary version 1' "$$tmp/reload-v1.json" || \
		{ echo "serve-smoke: v1 reload error does not name version 1"; cat "$$tmp/reload-v1.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/scan5.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: scan after a failed v1 reload returned $$code"; cat "$$tmp/scan5.json"; exit 1; }; \
	hash2=$$(curl -s "http://$$addr/healthz" | grep -o '"knowledge_hash": *"[0-9a-f]*"'); \
	[ -n "$$hash1" ] && [ "$$hash1" = "$$hash2" ] || \
		{ echo "serve-smoke: failed v1 reload changed the served knowledge ($$hash1 -> $$hash2)"; exit 1; }; \
	curl -s "http://$$addr/metrics" | grep -qE '^namer_knowledge_reload_last_success 0' || \
		{ echo "serve-smoke: failed v1 reload not reflected in namer_knowledge_reload_last_success"; exit 1; }; \
	printf '{\n "lang": "Python",\n "pairs": [{"mistaken": "cnt", "correct": "count", "count": 3}],\n "patterns": []\n}\n' \
		>"$$tmp/knowledge.bin"; \
	code=$$(curl -s -o "$$tmp/reload-json.json" -w '%{http_code}' -X POST "http://$$addr/debug/reload"); \
	[ "$$code" = 500 ] || { echo "serve-smoke: reload of a JSON file returned $$code, want 500"; cat "$$tmp/reload-json.json"; exit 1; }; \
	grep -qF 'JSON knowledge is no longer read' "$$tmp/reload-json.json" || \
		{ echo "serve-smoke: JSON reload error does not name JSON"; cat "$$tmp/reload-json.json"; exit 1; }; \
	code=$$(curl -s -o "$$tmp/scan6.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"upload_cnt = upload_count + 1\n","all":true}' \
		"http://$$addr/v1/scan"); \
	[ "$$code" = 200 ] || { echo "serve-smoke: scan after a failed JSON reload returned $$code"; cat "$$tmp/scan6.json"; exit 1; }; \
	hash3=$$(curl -s "http://$$addr/healthz" | grep -o '"knowledge_hash": *"[0-9a-f]*"'); \
	[ "$$hash1" = "$$hash3" ] || \
		{ echo "serve-smoke: failed JSON reload changed the served knowledge ($$hash1 -> $$hash3)"; exit 1; }; \
	mv "$$tmp/knowledge.good" "$$tmp/knowledge.bin"; \
	kill -TERM $$pid; wait $$pid || { echo "serve-smoke: unclean shutdown"; exit 1; }; \
	pid=; \
	grep -qF 'knowledge reload failed' "$$tmp/serve.log" || \
		{ echo "serve-smoke: failed v1 reload was not logged"; cat "$$tmp/serve.log"; exit 1; }; \
	bad=$$(grep -cvE '^(\{.*\})?$$' "$$tmp/serve.log" || true); \
	[ "$$bad" = 0 ] || { echo "serve-smoke: $$bad lines of -log-format json output are not JSON objects"; \
		grep -vE '^(\{.*\})?$$' "$$tmp/serve.log"; exit 1; }; \
	"$$tmp/namer-serve" -addr 127.0.0.1:0 -knowledge "$$tmp/knowledge.bin" -max-inflight 1 \
		-ready-file "$$tmp/addr2" >"$$tmp/serve2.log" 2>&1 & pid2=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr2" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr2" ] || { echo "serve-smoke: capped server did not start"; cat "$$tmp/serve2.log"; exit 1; }; \
	addr2=$$(head -n1 "$$tmp/addr2"); \
	awk 'BEGIN{printf "{\"lang\":\"python\",\"all\":true,\"source\":\""; \
		for(i=0;i<20000;i++) printf "value_%d = other_%d + 1\\n", i, i; print "\"}"}' \
		>"$$tmp/big.json"; \
	curl -s -o "$$tmp/held.json" -w '%{http_code}' -X POST --data-binary @"$$tmp/big.json" \
		"http://$$addr2/v1/scan" >"$$tmp/held.code" & slowpid=$$!; \
	for i in $$(seq 1 100); do \
		curl -s "http://$$addr2/metrics" | grep -qE '^namer_scan_inflight 1' && break; sleep 0.1; \
	done; \
	curl -s "http://$$addr2/metrics" | grep -qE '^namer_scan_inflight 1' || \
		{ echo "serve-smoke: slow scan never occupied the in-flight slot"; exit 1; }; \
	code=$$(curl -s -D "$$tmp/shed.hdrs" -o "$$tmp/shed.json" -w '%{http_code}' -X POST \
		-d '{"lang":"python","source":"x = 1\n"}' "http://$$addr2/v1/scan"); \
	[ "$$code" = 429 ] || { echo "serve-smoke: scan past -max-inflight returned $$code, want 429"; \
		cat "$$tmp/shed.json"; exit 1; }; \
	grep -qiE '^Retry-After: [0-9]+' "$$tmp/shed.hdrs" || \
		{ echo "serve-smoke: 429 shed carries no Retry-After header"; cat "$$tmp/shed.hdrs"; exit 1; }; \
	wait $$slowpid; \
	[ "$$(cat "$$tmp/held.code")" = 200 ] || \
		{ echo "serve-smoke: held streaming scan returned $$(cat "$$tmp/held.code")"; cat "$$tmp/held.json"; exit 1; }; \
	kill -TERM $$pid2; wait $$pid2 || { echo "serve-smoke: unclean capped-server shutdown"; exit 1; }; \
	pid2=; \
	echo "serve-smoke: ok ($$addr, 429 shed with Retry-After at capacity)"
