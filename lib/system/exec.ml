(* flm-lint: allow locality/mutable-state — [runs_started] is a monotone
   telemetry counter behind [total_runs]; no execution ever reads it, so it
   cannot feed nondeterminism back into a run *)
let runs_started = Atomic.make 0

let total_runs () = Atomic.get runs_started

(* States and sends land in a per-execution arena, and the inbox rows are
   per-domain scratch reused across runs.  The arena keeps each state in
   its device's own type, so each step gets back the very state its device
   returned last round and no state is encoded during the run; each
   receiver gets the very message recorded for the send (in a signed run,
   the sanitized one). *)
let run ?(signed = false) ?(delay = 1) sys ~rounds =
  if rounds < 0 then invalid_arg "Exec.run: negative horizon";
  if delay < 1 then invalid_arg "Exec.run: delay >= 1 required";
  Atomic.incr runs_started;
  let n = Graph.n (System.graph sys) in
  let ledger = if signed then Some (Signature.ledger_create ~nodes:n) else None in
  let arena = Arena.create sys ~rounds in
  (* back_port.(u).(j): the port on which wiring(u).(j) reaches back to u —
     precomputed once on the system (wiring never changes). *)
  let back_port = System.back_ports sys in
  let arities = Array.init n (fun u -> Array.length (System.wiring sys u)) in
  Exec_scratch.with_inboxes ~arities (fun inboxes ->
      for r = 0 to rounds - 1 do
        (* Cooperative deadline check, once per simulated round: a run whose
           job carries a deadline (see Flm_error.Deadline) aborts with a
           typed timeout instead of running away.  A single domain-local
           read when no deadline is installed. *)
        Flm_error.Deadline.check ();
        for u = 0 to n - 1 do
          let wiring = System.wiring sys u in
          let inbox = inboxes.(u) in
          for j = 0 to Array.length wiring - 1 do
            inbox.(j) <-
              (if r < delay then None
               else
                 Arena.sent arena wiring.(j) ~port:back_port.(u).(j)
                   ~round:(r - delay))
          done
        done;
        (* Absorb this round's deliveries into the signature ledgers first,
           so a signature received now may be relayed now. *)
        (match ledger with
        | None -> ()
        | Some ledger ->
          Array.iteri
            (fun u inbox ->
              Array.iter
                (function
                  | Some m -> Signature.absorb ledger ~node:u m
                  | None -> ())
                inbox)
            inboxes);
        for u = 0 to n - 1 do
          let sends = Arena.step arena u ~round:r ~inbox:inboxes.(u) in
          let sends =
            match ledger with
            | None -> sends
            | Some ledger ->
              Array.map (Option.map (Signature.sanitize ledger ~node:u)) sends
          in
          Array.iteri
            (fun port v -> Arena.set_sent arena u ~port ~round:r v)
            sends
        done
      done);
  Trace.of_arena ~system:sys ~rounds arena

let run_until_decided ?signed ?delay sys ~max_rounds =
  if max_rounds < 1 then invalid_arg "Exec.run_until_decided: horizon >= 1";
  (* Doubling search keeps total work linear in the final horizon while
     reusing the pure executor. *)
  let all_decided trace =
    List.for_all
      (fun u -> Trace.decision trace u <> None)
      (Graph.nodes (System.graph sys))
  in
  let rec attempt horizon =
    let t = run ?signed ?delay sys ~rounds:horizon in
    if all_decided t || horizon >= max_rounds then t
    else attempt (min max_rounds (2 * horizon))
  in
  attempt (min max_rounds 4)
