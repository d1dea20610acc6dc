(** Devices: deterministic, port-labeled state machines.

    A device is written for a particular node of a particular communication
    graph; its ports are the neighbors of that node, in ascending order.  The
    device itself is {e anonymous}: it sees only its input, its state, and
    per-port messages.  Whatever it "knows" about its identity or its
    neighbors' identities is baked into its code at construction time — which
    is exactly what lets a covering system install the same device at a node
    of a different graph that merely {e looks} locally the same (the paper's
    masquerading).

    Time is synchronous rounds.  A message sent on a port in round [r] is
    delivered in round [r+1], so the Bounded-Delay Locality axiom holds with
    δ = one round.

    A device keeps its state in whatever type suits it: the executor only
    threads the state from one step to the next and asks [output] for the
    decision.  [project] gives the state's {!Value} encoding, the node
    behavior that scenarios compare; it is called only when a trace reader
    asks for a state (see {!Trace}).  Messages are always [Value]s, so the
    Fault axiom's replay devices need nothing but recorded traffic. *)

type 's machine = {
  name : string;
  arity : int;  (** number of ports; must equal the degree of the host node *)
  init : input:Value.t -> 's;  (** initial state from the node's input *)
  step :
    state:'s ->
    round:int ->
    inbox:Value.t option array ->
    's * Value.t option array;
      (** [step ~state ~round ~inbox] consumes the messages delivered this
          round (index = port; [None] = silence) and produces the next state
          and the per-port messages to send.  Must be deterministic and must
          return a sends array of length [arity]. *)
  output : 's -> Value.t option;
      (** CHOOSE: the decision visible in a state, if the device has decided.
          Must be stable: once [Some v], every later state of an honest run
          reports [Some v]. *)
  project : 's -> Value.t;
      (** The state's [Value] encoding: a pure function of the state, so two
          equal states project to equal values. *)
}

type t = Device : 's machine -> t [@@unboxed]
(** A device, its state type hidden. *)

type running = Running : 's machine * 's -> running
(** A device paired with one of its states: how a composite device keeps
    sub-devices of different state types. *)

val make :
  name:string ->
  arity:int ->
  init:(input:Value.t -> Value.t) ->
  step:
    (state:Value.t ->
    round:int ->
    inbox:Value.t option array ->
    Value.t * Value.t option array) ->
  output:(Value.t -> Value.t option) ->
  t
(** A device whose state is its own encoding ([project] is the identity). *)

val name : t -> string
val arity : t -> int

val silent : name:string -> arity:int -> t
(** Never sends, never decides. *)

val replay : name:string -> sends:Value.t option array array -> t
(** [replay ~sends] ignores input and inbox and transmits [sends.(port).(r)]
    on each [port] at each round [r] (silence beyond the recorded horizon).
    This is the Fault-axiom device [F_A(E_1, …, E_d)]: each port's schedule
    may be taken from a {e different} run.  Arity = [Array.length sends]. *)

val check : t -> unit
(** Sanity checks ([arity >= 0]); raises [Invalid_argument]. *)

val step_checked :
  's machine -> state:'s -> round:int -> inbox:Value.t option array ->
  's * Value.t option array
(** Runs [step] and verifies the sends array has length [arity] and the inbox
    had length [arity]; raises [Invalid_argument] otherwise.  The simulator
    uses this so a buggy device fails loudly instead of corrupting traces. *)

(** {1 Combinators} *)

val contramap_input : (Value.t -> Value.t) -> t -> t
(** Transform the input before it reaches [init]. *)

val map_output : (Value.t -> Value.t) -> t -> t
(** Transform the decision. *)

val parallel : (string * t) list -> t
(** Run several devices in lockstep over the same ports.  All must share the
    same arity.  Each round, every sub-device sees the component of the
    incoming message addressed to it (messages are name-keyed assocs) and its
    sends are bundled likewise.  The composite decides once {e all}
    sub-devices have decided, outputting the name-keyed assoc of decisions.
    Its state projects to the name-keyed assoc of sub-states.  This is the
    footnote-3 product construction, and the engine behind interactive
    consistency (one broadcast instance per node). *)
