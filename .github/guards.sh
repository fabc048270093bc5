#!/usr/bin/env bash
# The repository's structural guards: each fails when code a refactor
# deleted comes back, or when a decision the refactor moved behind one
# place is made somewhere else again. They are one list (the end of this
# file), run by one CI step. Run from the repository root:
#
#	.github/guards.sh
#
# Every guard runs, each failure prints the offending lines and its
# message, and the script exits 1, naming the guards that failed, if any
# did.
set -u

failed=''
current=''

# guard NAME starts the next guard's checks.
guard() { current=$1; }

# fail MESSAGE prints MESSAGE and records the current guard as failed.
fail() {
	echo "$1" >&2
	failed="$failed
  $current"
}

# absent MESSAGE GIT-GREP-ARGS...: git grep -n must find nothing.
absent() {
	local msg=$1
	shift
	if git grep -n "$@"; then
		fail "$msg"
	fi
}

# only_in MESSAGE REGEX FILES ALLOWED...: every line of FILES (a
# space-separated list) that matches the awk regular expression REGEX lies
# in a function whose declaration line is one of ALLOWED.
only_in() {
	local msg=$1 re=$2 files=$3
	shift 3
	if [ -z "${files// /}" ]; then
		fail "$msg (no files to check)"
		return
	fi
	local allowed=()
	for fn in "$@"; do
		allowed+=(-e "$fn")
	done
	# shellcheck disable=SC2086 # files is a word list
	where=$(RE=$re awk '/^func /{fn=$0} $0 ~ ENVIRON["RE"]{print fn}' $files |
		grep -vxF "${allowed[@]}" || true)
	if [ -n "$where" ]; then
		fail "$msg"
		# shellcheck disable=SC2086
		git grep -nE "$re" -- $files >&2
	fi
}

# once MESSAGE CALL BUILDER: CALL appears in exactly one function of the
# root package's non-test Go files, the one FILE: DECLARATION line BUILDER
# names, once. A declaration line is not a call.
once() {
	local msg=$1 call=$2 builder=$3
	where=$(awk -v c="$call" '/^func /{fn=$0; next} index($0, c){print FILENAME ": " fn}' $(git ls-files ':(glob)*.go' ':(exclude,glob)*_test.go'))
	if [ "$where" != "$builder" ]; then
		fail "$msg"
		echo "$where" >&2
	fi
}

# The list.

guard 'No per-cluster loop in the driver'
# The cluster loop lives in the engine: a lane hands each chunk to its
# executor as one engine.Run (Executor.FindRun). A FindAll call in
# driver.go is a per-cluster loop growing back.
absent "driver.go calls FindAll: the cluster loop belongs to the engine's run loops" \
	'\.FindAll(' -- driver.go

guard 'No per-handle trace store'
# The per-Query lifecycle trace was deleted with its store, sampling knob
# and Chrome export; an execution's record is its obs.Event.
absent 'the per-handle trace store is back' \
	-E 'traceStore|SetTraceSampleRate|WriteChromeTrace|retainTrace|compileSpansOf' -- '*.go'

guard 'One configuration per plan'
# A plan is compiled once and never re-derived, and a run's probe path
# follows from its kernel alone: the adaptive executor flip (SetAdaptive,
# derivePlan, replacePlan, preferNaive, its replans counter and
# OPSSavingsObserved) and the per-run NoVectorize switch with
# Kernel.Memoize were deleted. The benchmark harness is exempt.
absent "a plan's configuration is being changed after compile again" \
	-E 'NoVectorize|SetAdaptive|derivePlan|replacePlan|preferNaive|adaptiveReplans|OPSSavingsObserved|\.Memoize\(' -- '*.go' ':!benchmark/'

guard 'One predicate compiler'
# A condition compiles once, to the kernel's atoms, which the row path
# (streams, SetVectorized off) and the mask builders both read: the
# closure compiler (condFn and its four factories) is gone, and a batch
# probe reads only masks, so no engine.Run, driver search or memo carries
# projections. The unused setters and the per-Query trace went with it.
absent 'a second predicate compiler or a deleted API is back' \
	-E 'condFn|numConstKernel|numFieldKernel|strLitKernel|strFieldKernel|SetEventSampleRate|SetEventRingCapacity|SetPartitionCacheCapacity|LastPath' -- '*.go' ':!benchmark/'
absent 'the batch path carries projections again' \
	'Projs' -- internal/engine/run.go driver.go serving.go

guard 'One §5 runtime'
# Every pattern, star-free ones included, runs the §5 loops (the generic,
# element-1-skip and pair-scan loops, and the stream's drain), which read
# §4.2's tables through the one rule on core.Tables.Next; streams read the
# plan's own tables. The plain search loop, the second per-pattern table
# set for streams and the NoKernel run and stream options were deleted.
absent 'a second search loop, stream table set or interpreter switch is back' \
	-E 'findAllPlain|evalPlain|loopPlain|streamTabs|streamTables|NoKernel' -- '*.go' ':!*_test.go' ':!benchmark/'
absent 'ComputeForStream is called outside the core package and the benchmark harness' \
	'ComputeForStream(' -- '*.go' ':!internal/core/' ':!benchmark/'

guard 'GOMAXPROCS is read in the elastic branch only'
# runtime.GOMAXPROCS(0) takes the scheduler lock. The driver may call it in
# borrowHelpers, which only a default-option run over the elastic
# threshold reaches, and in the fan pool's put, which only a fanned-out run
# reaches; a call anywhere else in driver.go puts it on the path of every
# small query.
only_in 'runtime.GOMAXPROCS(0) in driver.go outside borrowHelpers and fanPool.put:' \
	'runtime\.GOMAXPROCS\(0\)' driver.go \
	'func borrowHelpers() (helpers, budget int) {' 'func (p *fanPool) put(f *fan, res *Result) {'

guard 'One compile per pattern'
# θ/φ matrices, shift/next tables and the kernel are functions of the
# pattern alone, and plans whose statements share FROM … WHERE share them
# (patternArtifact, built by DB.compilePattern). A second call in the root
# package is a per-plan compile growing back.
for call in 'ComputeMatrices(' 'CompileKernel('; do
	once "$call is called outside the pattern artifact builder, or more than once:" "$call" \
		'sqlts.go: func (db *DB) compilePattern(key patternKey, analysis *query.Compiled, tr *obs.Trace) *patternArtifact {'
done

guard 'One memo builder'
# The partition memos are built by the kernel's run builder
# (pattern.Kernel.BuildRun). Its one-cluster case, BuildMasks, is for the
# engine's own masks (and the benchmark's replay): a call anywhere else is
# a hand-rolled per-cluster memo loop growing back.
absent 'BuildMasks called outside internal/pattern and internal/engine' \
	'BuildMasks(' -- '*.go' ':!*_test.go' ':!benchmark/' ':!internal/pattern/' ':!internal/engine/'

guard 'One rollback, decided once per table entry'
# §5 mismatch rule 2 is derived in one place, the step builder newSteps,
# from the tables and the executor's fixed configuration; the generic,
# pure and stream loops read only the steps, and every OPS configuration
# takes the pure loops (Name only prints the configuration). A line whose
# first character other than a blank is a slash (a comment) is exempt.
only_in 'the rollback rule or an ablation config is read outside the step builder' \
	'^[[:space:]]*[^[:space:]/].*(\.(SkipOK|ShiftOnly|NoCounters)([^A-Za-z0-9_]|$)|j-sh\+1|j - sh \+ 1)' \
	"$(git ls-files ':(glob)internal/engine/*.go' ':(exclude,glob)internal/engine/*_test.go' | tr '\n' ' ')" \
	'func newSteps(t *core.Tables, cfg OPSConfig) []step {' 'func (o *OPS) Name() string {'
absent 'the pure loops are gated on the OPS configuration again' \
	-E '[!=]=[[:space:]]*(engine\.)?OPSConfig\{' -- '*.go' ':!*_test.go'

guard 'One partition cache'
# Pattern queries take their clusters and masks from one cache, the
# partition cache (DB.partition, then memoFor). The sharded partition
# cache read slower than it on every measured workload and was deleted;
# SetShards is a no-op. internal/shard stays for the benchmark harness's
# shard.* probes only. Tests may name what they check is gone.
absent 'internal/shard is imported outside the benchmark harness and the package itself' \
	'"sqlts/internal/shard"' -- '*.go' ':!benchmark/' ':!internal/shard/'
absent 'the sharded serving path is back' \
	-E 'shardParts|shardCache|globalOrder|ShardInfo|serveShards|sqlts_shard' -- '*.go' ':!*_test.go' ':!benchmark/' ':!internal/shard/'

guard 'A warm statement is found by its text'
# A cached plan is found under the text it was compiled from, so a warm
# statement is not normalized: the normalizer runs only when that lookup
# misses, inside the plan lookup. The partition key is computed once per
# plan, when it is compiled, and every one-lane run of a plan takes the
# executor the plan keeps (Plan.solo); the process-wide lane pool that
# built an executor per run is gone.
once 'the normalizer is called outside the plan lookup, or more than once:' 'normalizeSQL(' \
	'serving.go: func (db *DB) lookupPlan(sql string) (p *Plan, key string) {'
once 'the partition key is computed outside the plan compile, or more than once:' 'partitionKey(' \
	'sqlts.go: func (db *DB) compilePlan(sel *query.SelectStmt, sql string, tr *obs.Trace) (*Plan, error) {'
absent 'the process-wide pool of one-lane run lanes is back' \
	'soloLanes' -- '*.go'

if [ -n "$failed" ]; then
	echo "failed guards:$failed" >&2
	exit 1
fi
