package faultinject

// The registry: every fault-injection point compiled into the tree, one
// typed value each. Chaos plans target points by these names, so the list is
// the contract between the code that fires points and the tooling that arms
// them. Points exist only here — newPoint is unexported — so a call site
// cannot name an unregistered or dynamically built point and still compile;
// newPoint panics on a duplicate name at init, and the package tests check
// that names are well formed and that every point is fired by some package.
var (
	// CampaignDecode fires at the top of campaign.DecodeSpec (error-only): a
	// rejected or corrupted spec upload.
	CampaignDecode = newPoint("campaign.decode")
	// CampaignDispatch fires before each campaign batch submission to simsvc.
	// An injected error fails the campaign at once; its journal records keep
	// it resumable, and the resumed report is byte-identical to a fault-free
	// run.
	CampaignDispatch = newPoint("campaign.dispatch")
	// CampaignExport fires at the top of report export (error-only): a failed
	// report write surfaces to the caller instead of emitting a torn file.
	CampaignExport = newPoint("campaign.export")

	// CkptDecode corrupts checkpoint bytes before parsing, exercising
	// Decode's hardening (and the service's degrade-to-cold path) end to end.
	CkptDecode = newPoint("ckpt.decode")
	// CkptEncode fires at the start of ckpt.Encode, so chaos plans can kill
	// checkpointing upstream of file IO.
	CkptEncode = newPoint("ckpt.encode")
	// CkptWrite fires twice inside frame.WriteFileAtomic — once before the
	// temp file is written (occurrence 2k+1) and once after the bytes are
	// down but before the rename (occurrence 2k+2) — so a chaos plan can kill
	// the write at either side of the commit point and assert the
	// destination file is never left truncated.
	CkptWrite = newPoint("ckpt.write")

	// JournalAppend fires on every intent-journal append (error-only) and
	// supports KindCorrupt on the encoded record.
	JournalAppend = newPoint("journal.append")
	// JournalReplay gates each job re-submission during simsvc's startup
	// replay: an injected error skips that record (it stays pending for the
	// next restart), latency widens the replay window for chaos drills
	// against /readyz.
	JournalReplay = newPoint("journal.replay")
	// JournalRotate fires before a journal segment compaction (error-only).
	JournalRotate = newPoint("journal.rotate")

	// SimsvcCacheInsert fires after a successful compute, before the result
	// is published to the cache.
	SimsvcCacheInsert = newPoint("simsvc.cache.insert")
	// SimsvcCoalesce fires when a submission coalesces onto an in-flight twin
	// (error-only: evaluated under the service mutex).
	SimsvcCoalesce = newPoint("simsvc.coalesce")
	// SimsvcCompute fires at the start of every job compute (error, panic,
	// or latency faults exercise the settle-at-once, recover, and timeout
	// paths).
	SimsvcCompute = newPoint("simsvc.compute")
	// SimsvcHTTPBody fires while decoding a request body (latency simulates
	// a slow client, error an aborted body).
	SimsvcHTTPBody = newPoint("simsvc.http.body")
	// SimsvcHTTPResponse fires before a response body is encoded
	// (error-only). An injected error simulates a connection dying
	// mid-write: the handler emits a truncated body and aborts with
	// http.ErrAbortHandler, exactly what a peer reset looks like from inside
	// the server.
	SimsvcHTTPResponse = newPoint("simsvc.http.response")
	// SimsvcWarmEvict fires on warm-cache eviction passes (error-only, under
	// the mutex); an injected error forces one premature eviction.
	SimsvcWarmEvict = newPoint("simsvc.warm.evict")
	// SimsvcWarmStartFork fires before a forked job resumes from its
	// snapshot — the degrade-to-cold path.
	SimsvcWarmStartFork = newPoint("simsvc.warmstart.fork")
	// SimsvcWarmStartSnapshot fires inside the warm-start snapshot
	// computation — the owner-failure path.
	SimsvcWarmStartSnapshot = newPoint("simsvc.warmstart.snapshot")

	// StoreEvict fires on store eviction passes (error-only).
	StoreEvict = newPoint("store.evict")
	// StoreOpen fires when the store opens its directory (error-only).
	StoreOpen = newPoint("store.open")
	// StoreRead fires on every store read (error-only) and supports
	// KindCorrupt on the bytes read.
	StoreRead = newPoint("store.read")
	// StoreWrite fires on every store write (error-only) and supports
	// KindCorrupt: the encoded entry is corrupted before it lands,
	// simulating a torn write that survives the atomic rename; the read path
	// must then quarantine it.
	StoreWrite = newPoint("store.write")
)

// points maps every declared name to its handle. It is filled during package
// initialization and only read afterwards.
var points = map[string]*PointID{}

// newPoint declares one injection point. A duplicate name is a programming
// error caught the first time the binary starts.
func newPoint(name string) *PointID {
	if _, dup := points[name]; dup {
		panic("faultinject: duplicate point " + name)
	}
	p := &PointID{name: name}
	points[name] = p
	return p
}
