(** The write rule's approval round (Section 2), the one mechanism behind
    the lease server's write approvals, the callback server's breaks
    (Section 6) and the write-back server's recalls.

    A request — a write, or a conflicting acquisition — is held while the
    current holders of its file are asked to give up their copies.  At
    most one round is open per file; requests that arrive meanwhile queue
    behind it in FIFO order, so a writer cannot be starved (the paper's
    anti-starvation footnote): the open rounds are a {!File_gate}'s
    holders and the queued requests its waiters.  A round asks its
    holders, re-asks the silent ones every
    {!Netsim.Rpc_table.retry_interval}, and closes once
    every holder has answered or at its deadline, abandoning the holders
    still silent.  Closing cancels both timers, commits, and frees the
    file, which starts the queued requests in order until one opens a
    round.  A retransmitted request is dropped while it is open or queued,
    and a repeat of one already answered is answered again.

    The three servers differ only in what they hand the round: how a
    request is sent, the deadline, what an answer or an abandonment does to
    their holder state, and what a closed round commits.  A round emits
    the wait events ([Wait_begin], [Approval_request], [Approval_reply]
    with its [Lease_release], [Wait_expire]) into the server's tracer.

    ['s] is the server, passed to every hook; ['a] is what the server
    keeps about a request; ['v] is the answer it keeps for repeats. *)

type ('s, 'a, 'v) t

val create :
  engine:Simtime.Engine.t ->
  clock:Clock.t ->
  ?tracer:Trace.Sink.t ->
  id_origin:int ->
  start:('s -> Vstore.File_id.t -> src:Host.Host_id.t -> req:int -> 'a -> unit) ->
  ask:('s -> Vstore.File_id.t -> id:int -> Host.Host_id.t list -> unit) ->
  release:('s -> Vstore.File_id.t -> Host.Host_id.t -> approved:bool -> unit) ->
  commit:
    ('s ->
    Vstore.File_id.t ->
    src:Host.Host_id.t ->
    req:int ->
    'a ->
    id:int option ->
    started:Simtime.Time.t ->
    'v) ->
  repeat:('s -> Vstore.File_id.t -> src:Host.Host_id.t -> req:int -> 'v -> bool) ->
  ?hold:('s -> Vstore.File_id.t -> Simtime.Time.t) ->
  ?give_up:Simtime.Time.Span.t ->
  unit ->
  ('s, 'a, 'v) t
(** The hooks:
    - [start] serves a request that no round holds back: it ends by
      calling {!wait} or {!commit_now};
    - [ask] sends round [id]'s request to the silent holders given;
    - [release] is called for a holder that answered ([approved]), and at
      the deadline for each holder still silent;
    - [commit] applies a request once its round closes ([id] is the
      round's) or at once ([id = None]); [started] is the engine instant
      its round opened (or now).  Its result answers repeats;
    - [repeat] answers a repeat of an answered request, or returns [false]
      to have it served as a new one;
    - [hold], once every holder has answered, is the server-clock instant
      before which the round may not close; the round then waits until
      then alone (no such instant by default).

    A round's deadline is the server-clock instant {!wait} hands it: the
    instant every silent holder's lease has run out.  With [give_up] it is
    instead that long after the round opens, in engine time: a
    transport-level patience that waits out no lease.  Deadlines and
    [Wait_begin]'s [server_now] read [clock]; round ids count up from
    [id_origin]; [tracer] defaults to {!Trace.Sink.null}. *)

val submit : ('s, 'a, 'v) t -> 's -> Vstore.File_id.t -> src:Host.Host_id.t -> req:int -> 'a -> unit
(** A request arrives.  A repeat of an answered request goes to [repeat];
    a retransmission of the open or a queued request is dropped; a request
    on a {!busy} file queues; any other goes to [start]. *)

val wait :
  ('s, 'a, 'v) t ->
  's ->
  Vstore.File_id.t ->
  src:Host.Host_id.t ->
  req:int ->
  'a ->
  holders:Host.Host_id.Set.t ->
  ask:bool ->
  deadline:Lease.expiry ->
  unit
(** From [start]: open the file's round over [holders] with [deadline]
    ({!Lease.never}: none), both traced in [Wait_begin], then arm the
    deadline and, when [ask], ask the holders (otherwise the round waits
    out its deadline alone). *)

val commit_now :
  ('s, 'a, 'v) t -> 's -> Vstore.File_id.t -> src:Host.Host_id.t -> req:int -> 'a -> unit
(** From [start]: commit without a round, then start the queued requests
    in order until one opens a round. *)

val answer : ('s, 'a, 'v) t -> Vstore.File_id.t -> id:int -> Host.Host_id.t -> unit
(** A holder answered round [id] on the file; ignored unless that round is
    open and the holder still silent. *)

val busy : ('s, 'a, 'v) t -> Vstore.File_id.t -> bool
(** A round is open on the file (requests queue only behind one).  Two
    loads when no round is open anywhere. *)

val asking : ('s, 'a, 'v) t -> Vstore.File_id.t -> Host.Host_id.t -> bool
(** The file's open round is still waiting on [holder]'s answer. *)

val reset : ('s, 'a, 'v) t -> unit
(** Forget every round, queued request and answer, cancelling the rounds'
    timers, as a crash does.  Round ids keep counting up. *)

val rounds : ('s, 'a, 'v) t -> int
(** Open rounds. *)

val queued : ('s, 'a, 'v) t -> int
(** Requests queued behind the open rounds. *)

val queued_files : ('s, 'a, 'v) t -> int
(** Files with requests queued: a drained queue is forgotten. *)
