#!/usr/bin/env sh
# Run the full benchmark suite once and record the results as BENCH_<n>.json
# in the repo root, so the performance trajectory of the project is tracked
# PR by PR, together with its code size ("loc").  The per-benchmark iteration budget defaults to 1x; override it
# with `scripts/bench.sh --benchtime 5x`.
#
# After writing the new file, a per-benchmark delta table of ns/op against
# the latest prior BENCH_*.json is printed, so regressions are visible at a
# glance.
set -eu

cd "$(dirname "$0")/.."

n=1
while [ -e "BENCH_${n}.json" ]; do
	n=$((n + 1))
done
out="BENCH_${n}.json"
prev=""
if [ "$n" -gt 1 ]; then
	prev="BENCH_$((n - 1)).json"
fi

benchtime="1x"
if [ "${1:-}" = "--benchtime" ] && [ -n "${2:-}" ]; then
	benchtime="$2"
fi

raw="$(mktemp)"
expdir="$(mktemp -d)"
trap 'rm -f "$raw"; rm -rf "$expdir"' EXIT

go test -run '^$' -bench . -benchtime "$benchtime" -benchmem ./... | tee "$raw"

# Snapshot a cold-cache cdagx run of the checked-in paper spec: push-button
# regeneration of the paper numbers is part of the tracked surface, and its
# wall time rides along in the recording's "exp" section.
go build -o "$expdir/cdagx" ./cmd/cdagx
"$expdir/cdagx" run -q -cache-dir "$expdir/journal" -out "$expdir/out" \
	-summary "$expdir/summary.json" specs/paper.yaml

# Code size, tracked like ns/op: lines of non-test, non-vendored Go outside
# the benchmark module and test fixtures.
loc="$(find . \( -path ./vendor -o -path ./.git -o -path ./cdagbench -o -path ./.bench_build \) -prune -o -name '*.go' -print |
	grep -v '_test\.go$' | grep -v '/testdata/' | xargs cat | wc -l | tr -d ' ')"

# Emit one JSON object: metadata plus every benchmark line parsed into
# {name, iterations, ns_per_op, extra metrics}.
{
	printf '{\n'
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "loc": %s,\n' "$loc"
	printf '  "exp": '
	tr -d '\n' <"$expdir/summary.json" | sed 's/  */ /g'
	printf ',\n'
	printf '  "benchmarks": [\n'
	awk '
		/^Benchmark/ {
			name = $1
			iters = $2
			ns = ""
			metrics = ""
			for (i = 3; i < NF; i += 2) {
				val = $i
				unit = $(i + 1)
				if (unit == "ns/op") { ns = val; continue }
				gsub(/"/, "", unit)
				metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), unit, val)
			}
			line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, iters)
			if (ns != "") line = line sprintf(", \"ns_per_op\": %s", ns)
			if (metrics != "") line = line sprintf(", \"metrics\": {%s}", metrics)
			line = line "}"
			lines[++count] = line
		}
		END {
			for (i = 1; i <= count; i++)
				printf "%s%s\n", lines[i], (i < count ? "," : "")
		}
	' "$raw"
	printf '  ]\n'
	printf '}\n'
} > "$out"

echo "wrote $out"

# Delta table against the latest prior recording.  Both files are produced by
# this script, so each benchmark sits on its own line and a regex pull of the
# name/ns_per_op/allocs fields is reliable.
if [ -n "$prev" ]; then
	echo ""
	echo "delta vs $prev (negative = faster/leaner):"
	awk -v FS='"' '
		function num(line, key,   m) {
			m = line
			if (!sub(".*\"" key "\": *", "", m)) return ""
			sub("[,}].*", "", m)
			return m
		}
		/"name":/ {
			name = $4
			ns = num($0, "ns_per_op")
			al = num($0, "allocs/op")
			if (FNR == NR) {
				prev_ns[name] = ns
				prev_al[name] = al
				next
			}
			order[++count] = name
			cur_ns[name] = ns
			cur_al[name] = al
		}
		END {
			printf "  %-38s %14s %14s %9s %9s\n", "benchmark", "ns/op", "prev", "dns", "dallocs"
			for (i = 1; i <= count; i++) {
				name = order[i]
				short = name
				sub("^Benchmark", "", short)
				if (!(name in prev_ns) || prev_ns[name] == "" || cur_ns[name] == "") {
					printf "  %-38s %14s %14s %9s %9s\n", short, cur_ns[name], "-", "new", "-"
					continue
				}
				dns = (cur_ns[name] - prev_ns[name]) / prev_ns[name] * 100
				dal = "-"
				if (prev_al[name] != "" && cur_al[name] != "" && prev_al[name] + 0 > 0)
					dal = sprintf("%+.1f%%", (cur_al[name] - prev_al[name]) / prev_al[name] * 100)
				printf "  %-38s %14s %14s %+8.1f%% %9s\n", short, cur_ns[name], prev_ns[name], dns, dal
			}
		}
	' "$prev" "$out"
fi
