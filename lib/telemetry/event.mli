(** Typed trace events recorded by the flight {!Recorder}.

    The taxonomy covers the phenomena the paper's evaluation hinges on:
    queue dynamics (enqueue / dequeue / CE mark / drop with the occupancy
    after the action), congestion control (cwnd changes from BOS, TraSh
    [delta] updates), loss recovery (retransmits, RTO timeouts), flow
    lifecycle (per-subflow and whole-flow completion) and injected faults
    (link transitions, scheduled packet kills). *)

type t =
  | Enqueue of { queue : string; flow : int; subflow : int; depth : int }
      (** packet accepted; [depth] is the occupancy after the enqueue *)
  | Dequeue of { queue : string; flow : int; subflow : int; depth : int }
      (** packet left for transmission; [depth] after the dequeue *)
  | Ce_mark of { queue : string; flow : int; subflow : int; depth : int }
      (** ECN CE codepoint set on an ECT packet *)
  | Drop of { queue : string; flow : int; subflow : int; depth : int }
      (** packet dropped (overflow or blackout) *)
  | Cwnd_change of { flow : int; subflow : int; cwnd : float }
      (** congestion-window update from the controller *)
  | Trash_delta of { flow : int; subflow : int; delta : float }
      (** TraSh coupling recomputed a subflow's additive-increase share *)
  | Retransmit of { flow : int; subflow : int; seq : int }
      (** segment [seq] re-sent (fast retransmit or go-back-N) *)
  | Rto_timeout of { flow : int; subflow : int }  (** watchdog fired *)
  | Subflow_complete of { flow : int; subflow : int; acked : int }
  | Flow_complete of { flow : int; acked : int }
  | Link_down of { link : string }
      (** a fault injector (or scenario) took [link] down *)
  | Link_up of { link : string }  (** [link] restored *)
  | Injected_drop of { link : string; flow : int; subflow : int; seq : int }
      (** the fault injector killed a packet on [link] (loss model) *)

val kind : t -> string
(** Stable lowercase name, e.g. ["ce-mark"]; the filter key used by
    [xmp_sim trace --events]. *)

val all_kinds : string list
(** Every {!kind} value, in declaration order. *)

val csv_header : string
(** ["time_s,event,queue,flow,subflow,value"] — the unified column set;
    fields an event kind lacks are left empty. The fault events put
    their link name in [queue], and [value] is the event's scalar
    payload: queue depth, cwnd, delta, seq or acked segments. *)

val to_csv : time_ns:int -> t -> string
(** One CSV row (no trailing newline) under {!csv_header}. *)

val to_json : time_ns:int -> t -> string
(** One JSON object (no trailing newline) with the fields present for the
    event's kind. *)

val json_escape : string -> string
(** Escapes double-quotes, backslashes and control characters for
    embedding in a JSON string literal (shared with the metrics
    exporter). *)
