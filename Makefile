GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint fmt-check vet fuzz-smoke bench serve service-e2e clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

# lint runs the gofmt check and the standard vet suite. staticcheck runs
# too when it is on PATH (CI pins its version).
lint: fmt-check vet
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || \
		echo "staticcheck not installed; skipping (CI runs it pinned)"

# fmt-check fails when any tracked Go file needs gofmt.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# fuzz-smoke runs each native fuzz target briefly against its committed
# corpus plus fresh mutations: the decoder surfaces (store block
# decoder, cell-journal resume and its line decoder and encoder against
# encoding/json, the upload reader against a json.Decoder loop,
# request-journal read and replay,
# accuserv submit and job documents,
# accudist cell upload, accudist lease and fail) and graph.FromPairs
# against a per-node-set model, each for FUZZTIME (CI runs
# `make fuzz-smoke FUZZTIME=30s`).
fuzz-smoke:
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzDecodeBlock -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzCellJournalReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzDecodeCellLine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEncodeCellLine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzReadCellLines -fuzztime $(FUZZTIME)
	$(GO) test ./internal/osn -run '^$$' -fuzz FuzzReadJournalReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serv -run '^$$' -fuzz FuzzSubmit -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serv -run '^$$' -fuzz FuzzLoadJobs -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzUpload -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz FuzzLeaseAndFail -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzFromPairs -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# serve runs the accuserv job service on its default local address with a
# throwaway data directory under bin/.
serve:
	$(GO) run ./cmd/accuserv -data bin/accuserv-data

# service-e2e is the full crash/resume contract test: SIGKILL the server
# mid-grid, restart, and require a bit-identical result digest.
service-e2e:
	bash scripts/service_e2e.sh

clean:
	rm -rf bin
