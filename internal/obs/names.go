package obs

// Metric name inventory. Each kernel owns one Recorder (and therefore
// one registry); binding-level counters are per-process, held in one
// ProcCounters block per process, read with ProcValue(name, pid) and
// named name{proc=N} in Snapshot and Names once they have counted (a
// missing key reads 0). The README's "Observability" section mirrors
// this list.
const (
	// Kernel-level (substrate-wide) counters.
	MKernelMessages   = "kernel_messages_total"   // messages the kernel delivered
	MKernelBytes      = "kernel_bytes_total"      // payload bytes moved by the kernel
	MEnclosureMoves   = "enclosure_moves_total"   // Charlotte: enclosed ends rebound
	MLinkDestroys     = "link_destroys_total"     // Charlotte: links destroyed
	MKernelCalls      = "kernel_calls_total"      // Charlotte: per-call, labelled name{call=Name}
	MKernelRequests   = "kernel_requests_total"   // SODA: requests issued
	MKernelAccepts    = "kernel_accepts_total"    // SODA: accepts completed
	MKernelInterrupts = "kernel_interrupts_total" // SODA: software interrupts raised
	MKernelDiscovers  = "kernel_discovers_total"  // SODA: discover broadcasts
	MKernelBroadcasts = "kernel_broadcasts_total" // SODA: raw broadcasts on the bus
	MKernelRetries    = "kernel_retries_total"    // SODA: redeliveries after re-advertise
	MAtomicOps        = "atomic_ops_total"        // Chrysalis: 16-bit flag operations
	MQueueEnqueues    = "queue_enqueues_total"    // Chrysalis: dual-queue enqueues
	MQueueDequeues    = "queue_dequeues_total"    // Chrysalis: dual-queue dequeues
	MEventPosts       = "event_posts_total"       // Chrysalis: event-block posts
	MEventWaits       = "event_waits_total"       // Chrysalis: event-block waits
	MObjectMaps       = "object_maps_total"       // Chrysalis: memory-object maps
	MObjectUnmaps     = "object_unmaps_total"     // Chrysalis: memory-object unmaps
	MObjectsReclaimed = "objects_reclaimed_total" // Chrysalis: objects garbage-reclaimed
	MTornReads        = "torn_reads_total"        // Chrysalis: torn 32-bit reads observed

	// Binding-level counters, per process (ProcCounters blocks).
	MBindKernelSends  = "binding_kernel_sends_total" // Charlotte binding: kernel Sends issued
	MUnwantedReceives = "unwanted_receives_total"    // messages that no queue wanted
	MRetries          = "retries_total"              // Charlotte binding: retry NAKs sent
	MForbids          = "forbids_total"              // Charlotte binding: forbid NAKs sent
	MAllows           = "allows_total"               // Charlotte binding: allow retractions sent
	MGoaheads         = "goaheads_total"             // Charlotte binding: long-message clearances
	MEncPackets       = "enc_packets_total"          // Charlotte binding: enclosure packets
	MDroppedReplies   = "dropped_replies_total"      // Charlotte binding: unwanted replies dropped
	MResentRequests   = "resent_requests_total"      // Charlotte binding: stashed requests resent
	MFailedCancels    = "failed_cancels_total"       // Charlotte binding: Cancel lost the race
	MPuts             = "puts_total"                 // SODA binding: data puts completed
	MAccepts          = "accepts_total"              // SODA binding: requests accepted
	MSavedRequests    = "saved_requests_total"       // SODA binding: unwanted requests held
	MRejectedReplies  = "rejected_replies_total"     // SODA binding: unwanted replies NAKed
	MMovedForwards    = "moved_forwards_total"       // SODA binding: stale-hint forwards
	MHintFixes        = "hint_fixes_total"           // SODA binding: hints repaired
	MHintHits         = "hint_hits_total"            // SODA binding: puts landing on first hint
	MHintMisses       = "hint_misses_total"          // SODA binding: puts needing redirects/recovery
	MDiscovers        = "discovers_total"            // SODA binding: discover attempts
	MFreezes          = "freezes_total"              // SODA binding: absolute searches started
	MFreezeHalts      = "freeze_halts_total"         // SODA binding: processes frozen by a search
	MFrozenTimeNs     = "frozen_time_ns_total"       // SODA binding: virtual ns spent frozen
	MLinkMoves        = "link_moves_total"           // binding: link ends adopted after a move
	MCacheEvictions   = "cache_evictions_total"      // SODA binding: move-cache evictions
	MPairLimitRetries = "pair_limit_retries_total"   // SODA binding: backpressure re-posts
	MNotices          = "notices_total"              // Chrysalis binding: notices enqueued
	MStaleNotices     = "stale_notices_total"        // Chrysalis binding: stale notices ignored
	MFlagRescans      = "flag_rescans_total"         // Chrysalis binding: full flag rescans
	MRejections       = "rejections_total"           // Chrysalis binding: unwanted replies NAKed
	MLostNotices      = "lost_notices_total"         // Chrysalis binding: notice enqueue failed
	MTornNameReads    = "torn_name_reads_total"      // Chrysalis binding: torn queue-name reads

	// Run-time package (core) histograms: one unlabelled histogram of
	// each per recorder (a System has one), which every process on it
	// records into.
	MQueueWaitNs = "queue_wait_ns" // request sat in an explicit queue before Receive
	MProcBlockNs = "proc_block_ns" // process block point waiting for transport events
)
