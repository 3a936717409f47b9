package core

// Control-message notes of the session protocol: the join/leave handshake
// and backpressure vocabulary the live cluster runtime (internal/cluster)
// speaks over a connection.
const (
	// DoneNote announces a client has no more batches to contribute.
	DoneNote = "done"
	// JoinNote is the first message of a session: a control message
	// carrying the client's id.
	JoinNote = "join"
	// WelcomeNote is the server's accept reply to a join.
	WelcomeNote = "welcome"
	// RejectedNote tells a client its activation was bounced un-queued
	// (the cluster's sanitizer, below quarantine); the client should
	// resend after the hinted pause.
	RejectedNote = "rejected"
	// ResumeNote opens a reconnecting session: a control message carrying
	// the client's id and, in the Seq field, the session token issued
	// with the original welcome. A server that still holds the session
	// (within the resume grace window) swaps the connection in place —
	// id, queued items, and reply cache survive; a server that does not
	// (restarted, or grace expired) treats the resume as a fresh join.
	// The welcome reply always carries the session's token in Seq.
	ResumeNote = "resume"
	// AbortNote tells a client the server is shutting down.
	AbortNote = "abort"
	// RefusedNote prefixes an admission-control refusal of a join or
	// resume-as-fresh-join: the server is at its session cap or its shed
	// gate is open. The transport-level refusal code carries the
	// machine-readable class and RetryAfter the backoff hint; the note
	// stays human-readable for logs.
	RefusedNote = "refused"
	// ExpiredNote tells a client its queued activation was shed past its
	// enqueue deadline without being served; the client should resend it
	// (the server rolled its dedup watermark back to admit the resend).
	ExpiredNote = "expired"
)
