(** Correctness conditions for Byzantine agreement (paper §3) and weak
    agreement (§4), as executable checks over traces.

    Byzantine agreement — in any behavior with at least [n-f] correct nodes:
    - {e Agreement}: every correct node chooses the same value;
    - {e Validity}: if all correct nodes share an input, that is the choice;
    - {e Termination}: every correct node chooses (needed to make CHOOSE a
      total function of behaviors; all our devices decide by a fixed round).

    Weak agreement differs only in Validity, which binds when {e all} nodes
    are correct, plus the explicit {e Choice} deadline that rules out
    Lamport's limit solutions (§4). *)

val check :
  trace:Trace.t ->
  correct:Graph.node list ->
  inputs:(Graph.node -> Value.t) ->
  Violation.t list
(** Byzantine agreement conditions over the correct set. *)

val check_weak :
  trace:Trace.t ->
  correct:Graph.node list ->
  all_correct:bool ->
  inputs:(Graph.node -> Value.t) ->
  deadline:int ->
  Violation.t list
(** Weak agreement: agreement + choice-by-[deadline] over [correct]; validity
    only when [all_correct]. *)

val termination :
  problem:string -> ?deadline:int -> Trace.t -> Graph.node list -> Violation.t list
