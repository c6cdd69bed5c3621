package org.apache.spark

/** Waits until the listener bus has delivered every posted event. Listener events
  * arrive asynchronously; the traced run reads its counters only after this.
  */
object JoinbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
